package experiments

import (
	"context"
	"testing"
)

// TestTailLatencyStudy verifies §IV-A2's design trade-off empirically:
// dead-cycle variability grows with τ_B, and the per-period tail
// degrades faster than the mean beyond the optimum — so tail-focused
// designs must not choose a longer τ_B than average-focused ones.
func TestTailLatencyStudy(t *testing.T) {
	_, pts, err := TailLatencyStudy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 5 {
		t.Fatalf("%d points", len(pts))
	}
	byTau := map[float64]TailPoint{}
	var bestMean, bestTail TailPoint
	for _, p := range pts {
		byTau[p.TauB] = p
		if p.P5 > p.MeanP+1e-9 {
			t.Errorf("τ_B=%g: tail %.4f above mean %.4f", p.TauB, p.P5, p.MeanP)
		}
		if p.MeanP > bestMean.MeanP {
			bestMean = p
		}
		if p.P5 > bestTail.P5 {
			bestTail = p
		}
	}
	// Eq. 10's structure: the tail-optimal interval is never longer
	// than the mean-optimal one.
	if bestTail.TauB > bestMean.TauB {
		t.Errorf("tail-optimal τ_B %g exceeds mean-optimal %g", bestTail.TauB, bestMean.TauB)
	}
	// variability grows with τ_B through the multi-backup regime
	if !(byTau[250].Spread < byTau[1000].Spread && byTau[1000].Spread < byTau[4000].Spread) {
		t.Errorf("spread should grow with τ_B: %g, %g, %g",
			byTau[250].Spread, byTau[1000].Spread, byTau[4000].Spread)
	}
	// doubling τ_B past the optimum costs the tail relatively more than
	// the mean
	opt, twice := byTau[bestMean.TauB], byTau[bestMean.TauB*2]
	if twice.TauB != 0 {
		meanLoss := (opt.MeanP - twice.MeanP) / opt.MeanP
		tailLoss := (opt.P5 - twice.P5) / opt.P5
		if tailLoss <= meanLoss {
			t.Errorf("tail should degrade faster past the optimum: mean loss %.4f vs tail loss %.4f",
				meanLoss, tailLoss)
		}
	}
}
