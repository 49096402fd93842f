package experiments

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"ehmodel/internal/core"
)

func TestFig2ShapeAndOptima(t *testing.T) {
	f := Fig2()
	if len(f.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(f.Series))
	}
	// Takeaway 1: lower Ω_B is better everywhere.
	cheap, dear := f.Series[0], f.Series[3]
	for i := range cheap.Points {
		if cheap.Points[i].Y < dear.Points[i].Y-1e-12 {
			t.Fatalf("point %d: cheap backups worse than expensive", i)
		}
	}
	// Takeaway 2: each curve's peak sits at its own τ_B,opt, which
	// shifts with Ω_B.
	var peaks []float64
	for _, s := range f.Series {
		best := s.Points[0]
		for _, p := range s.Points {
			if p.Y > best.Y {
				best = p
			}
		}
		peaks = append(peaks, best.X)
	}
	if !(peaks[0] < peaks[3]) {
		t.Errorf("optimal τ_B should grow with backup cost: %v", peaks)
	}
	if len(f.Notes) == 0 {
		t.Error("missing optima notes")
	}
}

func TestFig3Monotone(t *testing.T) {
	f := Fig3()
	for _, s := range f.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y > s.Points[i-1].Y+1e-12 {
				t.Fatalf("%s: progress increased with τ_B at %g", s.Label, s.Points[i].X)
			}
		}
	}
}

func TestFig4BoundsOrdered(t *testing.T) {
	f := Fig4()
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	best, avg, worst := f.Series[0], f.Series[1], f.Series[2]
	for i := range best.Points {
		if !(worst.Points[i].Y <= avg.Points[i].Y && avg.Points[i].Y <= best.Points[i].Y) {
			t.Fatalf("bounds disordered at τ_B=%g", best.Points[i].X)
		}
	}
	// variability collapses as τ_B → 0
	first := best.Points[0].Y - worst.Points[0].Y
	last := best.Points[len(best.Points)-1].Y - worst.Points[len(worst.Points)-1].Y
	if first > last {
		t.Errorf("variability should grow with τ_B: gap %g → %g", first, last)
	}
}

func TestFig11CurvesPeakAtTauBBit(t *testing.T) {
	base := DefaultFig11Base()
	ratios := []float64{10, 25, 50, 100}
	f := Fig11()
	if len(f.Series) != len(ratios) {
		t.Fatalf("series = %d, want %d", len(f.Series), len(ratios))
	}
	var bits []float64
	for i, s := range f.Series {
		best := s.Points[0]
		for _, p := range s.Points {
			if p.Y > best.Y {
				best = p
			}
		}
		if best.Y <= 0 {
			t.Fatalf("%s: peak not positive", s.Label)
		}
		// the curve's empirical peak must straddle the analytic τ_B,bit
		p := base
		p.AlphaB = alphaForRatio(base, ratios[i])
		bit := p.TauBBit()
		bits = append(bits, bit)
		if rel := math.Abs(best.X-bit) / bit; rel > 0.15 {
			t.Errorf("%s: empirical peak at %g vs τ_B,bit %g", s.Label, best.X, bit)
		}
	}
	// smaller ratios favour more frequent backups: τ_B,bit grows with
	// the ratio (§VI-C).
	for i := 1; i < len(bits); i++ {
		if bits[i] <= bits[i-1] {
			t.Errorf("τ_B,bit should grow with the ratio: %v", bits)
		}
	}
	if len(f.Notes) < len(f.Series) {
		t.Error("expected per-curve τ_B,bit notes")
	}
}

func TestFigureCSV(t *testing.T) {
	f := Fig3()
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "series,x,y,err\n") {
		t.Fatalf("missing header: %q", out[:40])
	}
	if strings.Count(out, "\n") < 100 {
		t.Error("csv suspiciously short")
	}
	if f.find("Ω_B=1") == nil || f.find("missing") != nil {
		t.Error("find misbehaves")
	}
}

// csvReference renders f the way WriteCSV is specified to: every
// record through encoding/csv.
func csvReference(t *testing.T, f *Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write([]string{"series", "x", "y", "err"}); err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			rec := []string{s.Label}
			for _, v := range []float64{p.X, p.Y, p.Err} {
				rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
			}
			if err := cw.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteCSVMatchesEncodingCSV: WriteCSV writes the bytes
// encoding/csv writes for the same records, for labels that need
// quoting or look as if they might, and for every float special.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		5e-324, 1e21, 0.1, -2.2250738585072014e-308}
	var points []Point
	for i := range specials {
		points = append(points, Point{specials[i], specials[(i+1)%len(specials)], specials[(i+2)%len(specials)]})
	}
	for name, labels := range map[string][]string{
		"plain":         {"crc", "Ω_B=1"},
		"comma":         {"a,b"},
		"quote":         {`say "hi"`, `"`},
		"cr":            {"cr\rhere"},
		"lf":            {"lf\nhere", "crlf\r\n"},
		"leading space": {" lead", "\ttab"},
		"backslash dot": {`\.`, `\.x`},
		"empty":         {""},
		"mixed":         {"", " a,\"b\"\r\n", `\.`, "plain"},
	} {
		f := &Figure{ID: name}
		for _, l := range labels {
			f.Series = append(f.Series, Series{Label: l, Points: points})
		}
		f.Series = append(f.Series, Series{Label: "no points"})
		var got bytes.Buffer
		if err := f.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if want := csvReference(t, f); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteCSV wrote\n%q\nencoding/csv writes\n%q", name, got.Bytes(), want)
		}
	}
}

// BenchmarkFigureWriteCSV renders one analytic figure of the catalog's
// typical size.
func BenchmarkFigureWriteCSV(b *testing.B) {
	f := Fig3()
	b.ReportAllocs()
	for b.Loop() {
		if err := f.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCaseBitPrecision(t *testing.T) {
	r := CaseBitPrecision()
	if r.TauBBit <= 0 {
		t.Fatal("no τ_B,bit")
	}
	if r.GainOneBit <= 0 {
		t.Fatalf("1-bit cut should gain progress, got %g", r.GainOneBit)
	}
}

func TestCaseStoreMajor(t *testing.T) {
	fig, pts, err := CaseStoreMajor()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || len(fig.Series) != 2 {
		t.Fatal("empty case study")
	}
	for _, pt := range pts {
		// Eq. 14's direction must agree with the cache simulation.
		if pt.StoreWins && pt.MeasuredRatio < 1 {
			t.Errorf("σ ratio %g: model says store-major wins, sim ratio %g", pt.SigmaRatio, pt.MeasuredRatio)
		}
		if !pt.StoreWins && pt.MeasuredRatio > 1.6 {
			t.Errorf("σ ratio %g: model says no win, sim ratio %g", pt.SigmaRatio, pt.MeasuredRatio)
		}
	}
	// slow NVM writes (σ_B = σ_load/10) must favour store-major strongly
	if pts[0].MeasuredRatio <= 1.5 {
		t.Errorf("STT-RAM-like case should strongly favour store-major, ratio %g", pts[0].MeasuredRatio)
	}
	// symmetric bandwidth: near parity
	var sym *StoreMajorPoint
	for i := range pts {
		if pts[i].SigmaRatio == 1 {
			sym = &pts[i]
		}
	}
	if sym == nil || sym.MeasuredRatio < 0.6 || sym.MeasuredRatio > 1.7 {
		t.Errorf("symmetric case should be near parity: %+v", sym)
	}
}

func TestDefaultFig11BaseValid(t *testing.T) {
	if err := DefaultFig11Base().Validate(); err != nil {
		t.Fatal(err)
	}
	var _ core.Params = DefaultFig11Base()
}
