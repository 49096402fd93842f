package experiments

import (
	"context"
	"testing"
)

// TestBreakEvenStudy: the empirical one-backup-per-period crossover
// must straddle Eq. 11's break-even estimate — the paper's "more
// restore invocations than backup invocations" regime starts where the
// model says it does.
func TestBreakEvenStudy(t *testing.T) {
	fig, pts, tauBE, err := BreakEvenStudy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tauBE <= 0 {
		t.Fatal("no Eq. 11 estimate")
	}
	// backups-per-period must fall monotonically with τ_B
	for i := 1; i < len(pts); i++ {
		if pts[i].BackupsPerPeriod > pts[i-1].BackupsPerPeriod+0.05 {
			t.Errorf("backups/period rose at τ_B=%g", pts[i].TauB)
		}
	}
	// find the empirical crossover from the notes' source data
	var cross float64
	for i := 1; i < len(pts); i++ {
		if pts[i-1].BackupsPerPeriod >= 1 && pts[i].BackupsPerPeriod < 1 {
			x0, x1 := pts[i-1].TauB, pts[i].TauB
			y0, y1 := pts[i-1].BackupsPerPeriod, pts[i].BackupsPerPeriod
			cross = x0 + (1-y0)/(y1-y0)*(x1-x0)
		}
	}
	if cross == 0 {
		t.Fatal("no crossover found")
	}
	if ratio := cross / tauBE; ratio < 0.6 || ratio > 1.7 {
		t.Fatalf("empirical crossover %.0f vs Eq. 11 %.0f (ratio %.2f)", cross, tauBE, ratio)
	}
	if len(fig.Notes) < 3 {
		t.Error("missing notes")
	}
}
