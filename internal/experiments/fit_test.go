package experiments

import (
	"math"
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/core"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/strategy"
	"ehmodel/internal/workload"
)

// TestFitFromSimulatedMeasurements closes the loop the fit API exists
// for: sweep the backup interval on the device simulator (standing in
// for hardware measurements), fit the identifiable curve, and check
// the recovered optimum against both the empirical argmax and the
// model evaluated from first principles.
func TestFitFromSimulatedMeasurements(t *testing.T) {
	pm := energy.MSP430Power()
	w, _ := workload.Get("counter")
	prog, err := w.Build(workload.Options{Seg: asm.SRAM, Scale: 60})
	if err != nil {
		t.Fatal(err)
	}

	measure := func(tauB uint64) float64 {
		d, err := device.New(fixedConfig(prog, pm, 20000, 12), strategy.NewTimer(tauB, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.MeasuredProgress()
	}

	var pts []core.SweepPoint
	var best core.SweepPoint
	for _, tauB := range []uint64{100, 200, 400, 800, 1600, 3200, 6400, 12800} {
		pt := core.SweepPoint{X: float64(tauB), P: measure(tauB)}
		pts = append(pts, pt)
		if pt.P > best.P {
			best = pt
		}
	}

	fc, err := core.FitSweep(pts)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Residual > 0.05 {
		t.Fatalf("fit residual %g too large for simulated measurements", fc.Residual)
	}
	opt := fc.TauBOpt()
	// the fitted optimum must land within the sweep's resolution of the
	// empirical best (neighbouring points are 2× apart)
	if ratio := opt / best.X; ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("fitted τ_B,opt %g far from empirical best %g", opt, best.X)
	}
	// and the fitted curve must predict the measured points it was
	// trained on (sanity against degenerate fits). Large τ_B points
	// carry real dead-cycle quantization noise — a couple of backups
	// per period land wherever the period boundary falls — so the
	// tolerance is loose.
	for _, pt := range pts {
		if math.Abs(fc.Eval(pt.X)-pt.P) > 0.12 {
			t.Errorf("τ_B=%g: fit %g vs measured %g", pt.X, fc.Eval(pt.X), pt.P)
		}
	}
}
