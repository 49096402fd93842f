// Package trace provides harvested-voltage traces for driving the
// intermittent-device simulator. The paper's characterization (§V-B)
// uses recorded RF traces from Mementos; those recordings are not
// redistributable, so this package generates deterministic synthetic
// traces with the three shapes the paper describes:
//
//  1. two short spikes above 5 V with troughs close to 0 V,
//  2. a gradual ramp from near 0 V to about 2.5 V, and
//  3. multiple peaks of 3.5–5.5 V with troughs of 0–1.5 V.
//
// The paper reports that its characterization results are insensitive to
// trace shape because each active period carries a similar energy supply;
// the synthetic traces preserve exactly the properties the paper states.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"sync"
)

// Trace is a harvested open-circuit voltage signal sampled at a fixed
// period. A Trace must not be modified after construction, whether by
// a constructor or as a literal: cells running in parallel read one
// instance, and its CacheFingerprint is computed once, on first use.
type Trace struct {
	Name     string
	SamplesV []float64 // voltage at each sample point (V)
	PeriodS  float64   // seconds between samples

	fp struct { // CacheFingerprint's memo
		once sync.Once
		s    string
	}
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 {
	return float64(len(t.SamplesV)) * t.PeriodS
}

// VoltageAt returns the linearly interpolated voltage at time ts seconds.
// The trace repeats cyclically, so simulations may run longer than one
// recording. A trace of two or more samples has no voltage at a
// non-finite time and returns NaN.
func (t *Trace) VoltageAt(ts float64) float64 {
	if v, ok := Interp(t.SamplesV, ts/t.PeriodS); ok {
		return v
	}
	n := len(t.SamplesV)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return t.SamplesV[0]
	}
	pos := t.cyclePos(ts)
	if math.IsNaN(pos) {
		return pos
	}
	return lerp(t.SamplesV, pos)
}

// Interp is VoltageAt's common case, small enough to inline: for a
// sample position x = ts/PeriodS inside the first recording of a trace
// of two or more samples it returns VoltageAt(ts) and true; for any
// other x, and for fewer samples, it returns false and the caller asks
// VoltageAt. A loop that looks the supply up at every step calls it
// instead of VoltageAt, so only a wrap costs a call.
func Interp(s []float64, x float64) (float64, bool) {
	if len(s) < 2 || !(0 <= x && x < float64(len(s))) {
		return 0, false
	}
	return lerp(s, x), true
}

// lerp interpolates s at position pos in [0, len(s)); the last sample
// blends into the first.
func lerp(s []float64, pos float64) float64 {
	i := int(pos)
	frac := pos - float64(i)
	// pos < n, so i+1 ≤ n and only the last sample wraps: the compare is
	// (i+1) % n without the integer division.
	j := i + 1
	if j == len(s) {
		j = 0
	}
	return s[i]*(1-frac) + s[j]*frac
}

// cyclePos maps ts onto the sample axis, wrapped into one recording: a
// position in [0, n), or NaN when ts/PeriodS is not finite. VoltageAt
// calls it only for the positions Interp refuses — later recordings,
// negative and non-finite times — where Mod(±Inf, n) is NaN. Wrapping a
// negative x adds n, which rounds to n itself when |x| is at most half
// an ulp of n (ts = −1e-20 s on a 1 ms trace); that position is the
// start of the next recording, so it folds to 0.
func (t *Trace) cyclePos(ts float64) float64 {
	n := float64(len(t.SamplesV))
	pos := math.Mod(ts/t.PeriodS, n)
	if pos < 0 {
		if pos += n; pos == n {
			pos = 0
		}
	}
	return pos
}

// Stats summarizes a trace for experiment logs.
type Stats struct {
	MinV, MaxV, MeanV float64
}

// Stats returns min/max/mean voltage.
func (t *Trace) Stats() Stats {
	if len(t.SamplesV) == 0 {
		return Stats{}
	}
	s := Stats{MinV: t.SamplesV[0], MaxV: t.SamplesV[0]}
	sum := 0.0
	for _, v := range t.SamplesV {
		s.MinV = math.Min(s.MinV, v)
		s.MaxV = math.Max(s.MaxV, v)
		sum += v
	}
	s.MeanV = sum / float64(len(t.SamplesV))
	return s
}

// Kind identifies one of the three §V-B trace shapes.
type Kind int

const (
	// Spikes is trace 1: two short spikes over 5 V, troughs near 0 V.
	Spikes Kind = iota
	// Ramp is trace 2: a gradual increase from near 0 V to ~2.5 V.
	Ramp
	// MultiPeak is trace 3: several 3.5–5.5 V peaks with 0–1.5 V troughs.
	MultiPeak
)

func (k Kind) String() string {
	switch k {
	case Spikes:
		return "spikes"
	case Ramp:
		return "ramp"
	case MultiPeak:
		return "multipeak"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists all three shapes in paper order.
func Kinds() []Kind { return []Kind{Spikes, Ramp, MultiPeak} }

// Generate builds a deterministic synthetic trace of the given kind.
// duration is in seconds; period the sample spacing in seconds; seed
// makes distinct deterministic instances.
func Generate(k Kind, duration, period float64, seed int64) *Trace {
	n := int(duration / period)
	if n < 2 {
		n = 2
	}
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	switch k {
	case Spikes:
		genSpikes(s, rng)
	case Ramp:
		genRamp(s, rng)
	case MultiPeak:
		genMultiPeak(s, rng)
	}
	return &Trace{Name: k.String(), SamplesV: s, PeriodS: period}
}

// genSpikes: baseline noise near 0 V with two narrow >5 V spikes placed
// in the first and second halves of the recording.
func genSpikes(s []float64, rng *rand.Rand) {
	n := len(s)
	for i := range s {
		s[i] = 0.05 * rng.Float64() // troughs very close to 0 V
	}
	width := n / 60
	if width < 1 {
		width = 1
	}
	centers := []int{n/4 + rng.Intn(n/8+1), 3*n/4 + rng.Intn(n/8+1)}
	for _, c := range centers {
		peak := 5.2 + 0.6*rng.Float64() // just over 5 V
		for i := 0; i < n; i++ {
			d := float64(i-c) / float64(width)
			s[i] += peak * math.Exp(-d*d)
		}
	}
}

// genRamp: gradual rise from near 0 V to close to 2.5 V with mild ripple.
func genRamp(s []float64, rng *rand.Rand) {
	n := len(s)
	for i := range s {
		t := float64(i) / float64(n-1)
		v := 2.5*t + 0.05*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		s[i] = v
	}
}

// genMultiPeak: a slow oscillation between 0–1.5 V troughs and 3.5–5.5 V
// peaks, with per-peak amplitude jitter.
func genMultiPeak(s []float64, rng *rand.Rand) {
	n := len(s)
	const peaks = 6
	_ = rng // jitter is span-hashed for per-peak stability
	for i := range s {
		t := float64(i) / float64(n)
		phase := 2 * math.Pi * peaks * t
		// raise the sinusoid into [0,1] and sharpen it so troughs are wide
		u := (1 + math.Sin(phase)) / 2
		trough := 1.5 * pseudoJitter(i+n, n/peaks) // 0–1.5 V
		peakAmp := 3.5 + 2.0*pseudoJitter(i, n/peaks)
		v := trough + u*u*(peakAmp-trough)
		if v > 5.5 {
			v = 5.5
		}
		s[i] = v
	}
}

// pseudoJitter produces a value in [0,1) that is constant across each
// peak-sized span so a whole peak shares one amplitude.
func pseudoJitter(i, span int) float64 {
	if span <= 0 {
		span = 1
	}
	// deterministic per-span hash
	k := i / span
	h := uint64(k)*0x9e3779b97f4a7c15 + 0x123456789
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h%1000) / 1000
}

// Constant returns a flat trace at the given voltage — useful for tests
// and for modelling a bench power supply.
func Constant(v, duration, period float64) *Trace {
	n := int(duration / period)
	if n < 2 {
		n = 2
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return &Trace{Name: "constant", SamplesV: s, PeriodS: period}
}

// WriteCSV writes "time_s,voltage_v" rows.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "voltage_v"}); err != nil {
		return err
	}
	for i, v := range t.SamplesV {
		rec := []string{
			strconv.FormatFloat(float64(i)*t.PeriodS, 'g', -1, 64),
			strconv.FormatFloat(v, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseError reports an invalid trace CSV, naming the offending line.
// Line is 1-based and counts the header, matching editor line numbers.
type ParseError struct {
	Line int
	Msg  string
	Err  error // underlying cause, when any
}

func (e *ParseError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("trace: csv line %d: %s: %v", e.Line, e.Msg, e.Err)
	}
	return fmt.Sprintf("trace: csv line %d: %s", e.Line, e.Msg)
}

func (e *ParseError) Unwrap() error { return e.Err }

// ReadCSV parses a trace written by WriteCSV. The sample period is
// inferred from the first two timestamps. Malformed input — ragged
// rows, unparsable numbers, non-finite or negative voltages, non-finite
// or non-increasing timestamps — yields a *ParseError naming the line,
// so a bad recording fails loudly instead of driving the harvester with
// garbage.
func ReadCSV(r io.Reader, name string) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // report ragged rows ourselves, with line numbers
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(recs) < 3 {
		return nil, fmt.Errorf("trace: csv needs a header and ≥2 samples, have %d rows", len(recs))
	}
	recs = recs[1:] // drop header
	samples := make([]float64, len(recs))
	times := make([]float64, len(recs))
	for i, rec := range recs {
		line := i + 2
		if len(rec) != 2 {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("%d fields, want 2", len(rec))}
		}
		if times[i], err = strconv.ParseFloat(rec[0], 64); err != nil {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("time %q", rec[0]), Err: err}
		}
		if math.IsNaN(times[i]) || math.IsInf(times[i], 0) {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("time %q is not finite", rec[0])}
		}
		if i > 0 && times[i] <= times[i-1] {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("time %g does not increase past %g", times[i], times[i-1])}
		}
		if samples[i], err = strconv.ParseFloat(rec[1], 64); err != nil {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("voltage %q", rec[1]), Err: err}
		}
		if math.IsNaN(samples[i]) || math.IsInf(samples[i], 0) {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("voltage %q is not finite", rec[1])}
		}
		if samples[i] < 0 {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("voltage %g is negative — a harvested open-circuit voltage cannot be", samples[i])}
		}
	}
	return &Trace{Name: name, SamplesV: samples, PeriodS: times[1] - times[0]}, nil
}
