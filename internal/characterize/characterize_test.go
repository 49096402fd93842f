package characterize

import (
	"context"
	"testing"

	"ehmodel/internal/trace"
)

func TestRunClankProducesProfile(t *testing.T) {
	r, err := RunClank(context.Background(), "ds", trace.MultiPeak)
	if err != nil {
		t.Fatal(err)
	}
	if r.TauB.N == 0 {
		t.Fatal("no τ_B samples")
	}
	// the default configuration must span several active periods so
	// dead-cycle (τ_D) statistics exist (Fig. 9)
	if len(r.Result.Periods) < 3 {
		t.Fatalf("only %d periods; characterization needs several", len(r.Result.Periods))
	}
	if r.TauD.N == 0 {
		t.Fatal("no τ_D samples — no power failures observed")
	}
	if r.TauB.Mean <= 0 {
		t.Fatalf("mean τ_B %g", r.TauB.Mean)
	}
	// ds violates idempotency every iteration; backups must come far
	// more often than the watchdog
	if r.TauB.Mean > 2000 {
		t.Errorf("ds mean τ_B %g suspiciously large", r.TauB.Mean)
	}
	if r.Stats.Violations == 0 {
		t.Error("ds should trigger idempotency violations")
	}
}

func TestRunClankUnknownBench(t *testing.T) {
	if _, err := RunClank(context.Background(), "nope", trace.Ramp); err == nil {
		t.Fatal("unknown bench accepted")
	}
}

// TestTauDBoundedByTauB: dead cycles at a power failure cannot exceed
// the prevailing backup cadence by much (τ_D ≤ τ_B in the model; the
// measured analogue allows the in-flight interval).
func TestTauDBoundedByTauB(t *testing.T) {
	r, err := RunClank(context.Background(), "counter", trace.Spikes)
	if err != nil {
		t.Fatal(err)
	}
	// counter commits on violations only at loop granularity; dead
	// cycles per period should not exceed the watchdog period plus one
	// interval.
	if r.TauD.Max > 2*8000+100 {
		t.Errorf("τ_D max %g far exceeds the watchdog bound", r.TauD.Max)
	}
}

// TestTraceInsensitivity reproduces the paper's §V-B observation: τ_B
// distributions are nearly identical across trace shapes because every
// active period carries the same supply.
func TestTraceInsensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trace characterization is slow")
	}
	runs, errs, err := TauBProfile(context.Background(), []string{"lzfx"})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 0 {
		t.Fatalf("dropped runs: %v", errs)
	}
	if len(runs) != 3 {
		t.Fatalf("expected 3 trace runs, got %d", len(runs))
	}
	base := runs[0].TauB.Mean
	for _, r := range runs[1:] {
		ratio := r.TauB.Mean / base
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("τ_B should be trace-insensitive: %v gives %g vs %g",
				r.Trace, r.TauB.Mean, base)
		}
	}
}

func TestDefaultWatchdogs(t *testing.T) {
	wds := DefaultWatchdogs()
	if len(wds) != 12 || wds[0] != 250 || wds[11] != 3000 {
		t.Fatalf("watchdog sweep wrong: %v", wds)
	}
}

func TestAlphaBProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("α_B sweep is slow")
	}
	runs, errs, err := AlphaBProfile(context.Background(), []string{"ds", "sha"}, []uint64{250, 500, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 0 {
		t.Fatalf("dropped runs: %v", errs)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs", len(runs))
	}
	for _, r := range runs {
		if r.AlphaB.Mean <= 0 {
			t.Errorf("%s: zero α_B", r.Bench)
		}
		if r.AlphaB.Mean > 4 {
			t.Errorf("%s: α_B %g bytes/cycle implausible", r.Bench, r.AlphaB.Mean)
		}
		if len(r.PerWatchdog) != 3 {
			t.Errorf("%s: %d watchdog points", r.Bench, len(r.PerWatchdog))
		}
	}
	// ds rewrites a 16-word histogram: its unique-bytes-per-cycle should
	// exceed sha's, which only stores its digest at the end.
	if runs[0].AlphaB.Mean <= runs[1].AlphaB.Mean {
		t.Errorf("ds α_B (%g) should exceed sha α_B (%g)",
			runs[0].AlphaB.Mean, runs[1].AlphaB.Mean)
	}
}

func TestAlphaBUnknownBench(t *testing.T) {
	if _, _, err := AlphaBProfile(context.Background(), []string{"nope"}, []uint64{250}); err == nil {
		t.Fatal("unknown bench accepted")
	}
}
