package trace

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestGenerateSpikesShape(t *testing.T) {
	tr := Generate(Spikes, 10, 0.001, 1)
	s := tr.Stats()
	if s.MaxV < 5.0 {
		t.Errorf("spikes trace must exceed 5 V, max %g", s.MaxV)
	}
	if s.MinV > 0.2 {
		t.Errorf("spikes troughs must be near 0 V, min %g", s.MinV)
	}
	// spikes are short: less than 15% of samples should sit above 2 V
	high := 0
	for _, v := range tr.SamplesV {
		if v > 2 {
			high++
		}
	}
	if frac := float64(high) / float64(len(tr.SamplesV)); frac > 0.15 {
		t.Errorf("spikes should be narrow: %.1f%% of samples above 2 V", frac*100)
	}
}

func TestGenerateRampShape(t *testing.T) {
	tr := Generate(Ramp, 10, 0.001, 2)
	s := tr.Stats()
	if s.MinV > 0.3 {
		t.Errorf("ramp should start near 0 V, min %g", s.MinV)
	}
	if s.MaxV < 2.2 || s.MaxV > 2.9 {
		t.Errorf("ramp should reach ≈2.5 V, max %g", s.MaxV)
	}
	// trend: mean of second half well above mean of first half
	n := len(tr.SamplesV)
	var a, b float64
	for i, v := range tr.SamplesV {
		if i < n/2 {
			a += v
		} else {
			b += v
		}
	}
	if b <= a {
		t.Error("ramp should trend upward")
	}
}

func TestGenerateMultiPeakShape(t *testing.T) {
	tr := Generate(MultiPeak, 10, 0.001, 3)
	s := tr.Stats()
	if s.MaxV < 3.5 || s.MaxV > 5.5+1e-9 {
		t.Errorf("multipeak peaks must reach 3.5–5.5 V, max %g", s.MaxV)
	}
	if s.MinV < 0 || s.MinV > 1.5 {
		t.Errorf("multipeak troughs must stay within 0–1.5 V, min %g", s.MinV)
	}
	// count rising crossings of the midline to confirm multiple peaks
	crossings := 0
	mid := (s.MaxV + s.MinV) / 2
	for i := 1; i < len(tr.SamplesV); i++ {
		if tr.SamplesV[i-1] < mid && tr.SamplesV[i] >= mid {
			crossings++
		}
	}
	if crossings < 3 {
		t.Errorf("expected multiple peaks, found %d midline crossings", crossings)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, k := range Kinds() {
		a := Generate(k, 5, 0.001, 42)
		b := Generate(k, 5, 0.001, 42)
		if len(a.SamplesV) != len(b.SamplesV) {
			t.Fatalf("%v: lengths differ", k)
		}
		for i := range a.SamplesV {
			if a.SamplesV[i] != b.SamplesV[i] {
				t.Fatalf("%v: sample %d differs: %g vs %g", k, i, a.SamplesV[i], b.SamplesV[i])
			}
		}
	}
}

func TestVoltageAtInterpolation(t *testing.T) {
	tr := &Trace{SamplesV: []float64{0, 2, 4}, PeriodS: 1}
	if got := tr.VoltageAt(0.5); got != 1 {
		t.Errorf("V(0.5) = %g, want 1", got)
	}
	if got := tr.VoltageAt(1); got != 2 {
		t.Errorf("V(1) = %g, want 2", got)
	}
	// cyclic wrap: t=2.5 is halfway from sample 2 (4 V) back to sample 0 (0 V)
	if got := tr.VoltageAt(2.5); got != 2 {
		t.Errorf("V(2.5) wrap = %g, want 2", got)
	}
	if got := tr.VoltageAt(3.0); got != 0 {
		t.Errorf("V(3) wrap = %g, want 0", got)
	}
}

// TestCyclePosMatchesMod pins VoltageAt to the math.Mod expression, bit
// for bit, inside the first recording (where Interp answers without the
// modulo), on its boundary, several recordings in, before zero, just
// before zero where the wrap rounds up to n and folds to 0, and at NaN
// and ±Inf, where VoltageAt returns NaN; and cyclePos, which wraps the
// positions Interp refuses, to the same expression at each of them.
func TestCyclePosMatchesMod(t *testing.T) {
	tr := Generate(MultiPeak, 20, 1e-3, 7)
	n := float64(len(tr.SamplesV))
	mod := func(ts float64) float64 {
		pos := math.Mod(ts/tr.PeriodS, n)
		if pos < 0 {
			pos += n
		}
		if pos == n {
			pos = 0
		}
		return pos
	}
	d := tr.Duration()
	first := []float64{0, math.Copysign(0, -1), 1e-9, 0.37 * d, math.Nextafter(d, 0)}
	boundary := []float64{d}
	later := []float64{3*d + 0.123, 1e4 * d}
	negative := []float64{-1e-9, -0.37 * d, -2.5 * d}
	roundsUp := []float64{-1e-20, -math.SmallestNonzeroFloat64}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, ts := range slices.Concat(first, boundary, later, negative, roundsUp, special) {
		got, want := tr.cyclePos(ts), mod(ts)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("cyclePos(%v) = %v (%#x), math.Mod path %v (%#x)",
				ts, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		wantV := math.NaN()
		if !math.IsNaN(want) {
			wantV = interp(tr, want)
		}
		if v := tr.VoltageAt(ts); v != wantV && !(math.IsNaN(v) && math.IsNaN(wantV)) {
			t.Errorf("VoltageAt(%v) = %v, want %v", ts, v, wantV)
		}
	}
}

// interp is VoltageAt's interpolation at an already wrapped position,
// wrapping the upper sample with the modulo VoltageAt avoids.
func interp(tr *Trace, pos float64) float64 {
	i := int(pos)
	frac := pos - float64(i)
	j := (i + 1) % len(tr.SamplesV)
	return tr.SamplesV[i]*(1-frac) + tr.SamplesV[j]*frac
}

func TestVoltageAtDegenerate(t *testing.T) {
	empty := &Trace{}
	if got := empty.VoltageAt(1); got != 0 {
		t.Errorf("empty trace voltage = %g", got)
	}
	single := &Trace{SamplesV: []float64{3.3}, PeriodS: 1}
	if got := single.VoltageAt(99); got != 3.3 {
		t.Errorf("single-sample trace voltage = %g", got)
	}
}

func TestConstant(t *testing.T) {
	tr := Constant(3.0, 1, 0.01)
	if tr.Duration() != 1.0 {
		t.Errorf("duration = %g, want 1", tr.Duration())
	}
	for _, ts := range []float64{0, 0.123, 0.5, 0.99} {
		if got := tr.VoltageAt(ts); got != 3.0 {
			t.Errorf("V(%g) = %g, want 3", ts, got)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Generate(Ramp, 1, 0.01, 7)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "ramp")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.SamplesV) != len(orig.SamplesV) {
		t.Fatalf("length %d, want %d", len(back.SamplesV), len(orig.SamplesV))
	}
	if math.Abs(back.PeriodS-orig.PeriodS) > 1e-12 {
		t.Fatalf("period %g, want %g", back.PeriodS, orig.PeriodS)
	}
	for i := range orig.SamplesV {
		if back.SamplesV[i] != orig.SamplesV[i] {
			t.Fatalf("sample %d: %g != %g", i, back.SamplesV[i], orig.SamplesV[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		// line is the 1-based CSV line a *ParseError must name; 0 means
		// any error type is acceptable (structural, not row-level).
		line int
	}{
		{"too short", "time_s,voltage_v\n0,1\n", 0},
		{"bad time", "time_s,voltage_v\nx,1\n0.1,2\n", 2},
		{"bad voltage", "time_s,voltage_v\n0,x\n0.1,2\n", 2},
		{"ragged row", "time_s,voltage_v\n0,1\n0.1,2,3\n", 3},
		{"missing field", "time_s,voltage_v\n0,1\n0.1\n", 3},
		{"nan voltage", "time_s,voltage_v\n0,1\n0.1,NaN\n", 3},
		{"inf voltage", "time_s,voltage_v\n0,1\n0.1,+Inf\n", 3},
		{"negative voltage", "time_s,voltage_v\n0,1\n0.1,-0.5\n", 3},
		{"nan time", "time_s,voltage_v\n0,1\nNaN,2\n", 3},
		{"inf time", "time_s,voltage_v\n0,1\nInf,2\n", 3},
		{"repeated time", "time_s,voltage_v\n0,1\n0,2\n0.1,3\n", 3},
		{"backwards time", "time_s,voltage_v\n0,1\n0.2,2\n0.1,3\n", 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(c.data), "t")
			if err == nil {
				t.Fatal("expected error")
			}
			if c.line == 0 {
				return
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *ParseError", err)
			}
			if pe.Line != c.line {
				t.Fatalf("error names line %d, want %d: %v", pe.Line, c.line, pe)
			}
		})
	}
}

// TestParseErrorUnwrap: the strconv cause stays reachable for callers
// that want to distinguish syntax from semantics.
func TestParseErrorUnwrap(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("time_s,voltage_v\nbogus,1\n0.1,2\n"), "t")
	var ne *strconv.NumError
	if !errors.As(err, &ne) {
		t.Fatalf("parse cause lost: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if Spikes.String() != "spikes" || Ramp.String() != "ramp" || MultiPeak.String() != "multipeak" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("unknown kind should include value")
	}
	if len(Kinds()) != 3 {
		t.Error("three kinds expected")
	}
}

// TestCacheFingerprintPinned: every harvested cell key folds in these
// digests, so a change to the fingerprint's byte stream would silently
// orphan every stored harvested entry. The digests were recorded before
// samples were hashed in blocks; the 1024-sample trace fills the block
// buffer exactly, the others end mid-block.
func TestCacheFingerprintPinned(t *testing.T) {
	ramp := make([]float64, 1024)
	for i := range ramp {
		ramp[i] = float64(i) * 0.001
	}
	for _, c := range []struct {
		tr   *Trace
		want string
	}{
		{Generate(Spikes, 10, 1e-3, 7), "trace:d70b6f93103eedad5b128b61aea55821eedb9b46613c1e056d2394ed33e35d7b"},
		{Generate(Ramp, 10, 1e-3, 8), "trace:502b2dbdf501a8c1f0d5dd133325a96b0313da759182b3fe49271286c4552d67"},
		{Generate(MultiPeak, 10, 1e-3, 77), "trace:18a89d952a834b93c6f2692fd25d7b178081a8fd875857e47fc0223620203935"},
		{Constant(2.5, 1, 1e-3), "trace:4b330095f2db762bb0e4c976ba77dc9da42db6d856a13d39965d2bc2d136945f"},
		{&Trace{Name: "ramp-1024", SamplesV: ramp, PeriodS: 1e-3}, "trace:1a06ff36b1e67f82a2ece15ec9640a3070f5811d8810ad625d307a774ea0cb96"},
		{&Trace{Name: "ramp-777", SamplesV: ramp[:777], PeriodS: 1e-3}, "trace:8f814a823863e479dd55ba8e0c8294d3d97b54a5fd1659136bcbec7dce84a9b3"},
	} {
		if got := c.tr.CacheFingerprint(); got != c.want {
			t.Errorf("%s (%d samples): fingerprint %s, want %s", c.tr.Name, len(c.tr.SamplesV), got, c.want)
		}
	}
}

// TestCacheFingerprintMemo: each trace hashes its samples once, on its
// first CacheFingerprint call, whether a generator, Constant or ReadCSV
// built it or it is a literal, and that digest equals a fresh hash.
// Later calls return it without hashing again.
func TestCacheFingerprintMemo(t *testing.T) {
	var traces []*Trace
	for _, k := range Kinds() {
		traces = append(traces, Generate(k, 2, 1e-3, 5))
	}
	var csv bytes.Buffer
	if err := Generate(MultiPeak, 1, 1e-3, 9).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadCSV(&csv, "recorded")
	if err != nil {
		t.Fatal(err)
	}
	traces = append(traces, Constant(1.8, 1, 1e-3), parsed,
		&Trace{Name: "literal", SamplesV: []float64{0, 1.5, 3}, PeriodS: 1e-3})
	for _, tr := range traces {
		want := tr.fingerprint()
		for call := 1; call <= 2; call++ {
			if got := tr.CacheFingerprint(); got != want {
				t.Errorf("%s: call %d returned %s, a fresh hash is %s", tr.Name, call, got, want)
			}
		}
		if a := testing.AllocsPerRun(10, func() { _ = tr.CacheFingerprint() }); a != 0 {
			t.Errorf("%s: a repeated CacheFingerprint allocates %v times: it hashes again", tr.Name, a)
		}
	}
}
