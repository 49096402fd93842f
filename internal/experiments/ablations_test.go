package experiments

import (
	"context"
	"testing"
)

func TestAblationClankBuffers(t *testing.T) {
	fig, err := AblationClankBuffers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		// τ_B must be monotone non-decreasing in buffer capacity
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y < s.Points[i-1].Y*0.95 {
				t.Errorf("%s: τ_B shrank with capacity at %g entries (%g → %g)",
					s.Label, s.Points[i].X, s.Points[i-1].Y, s.Points[i].Y)
			}
		}
	}
	// lzfx's per-iteration violations cap its τ_B well below susan's at
	// large capacities
	susan, lzfx := fig.Series[0], fig.Series[1]
	last := len(susan.Points) - 1
	if lzfx.Points[last].Y >= susan.Points[last].Y {
		t.Errorf("at 64 entries lzfx τ_B (%g) should stay below susan's (%g)",
			lzfx.Points[last].Y, susan.Points[last].Y)
	}
}

func TestAblationClankWatchdog(t *testing.T) {
	fig, err := AblationClankWatchdog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pts := fig.Series[0].Points
	if len(pts) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	// an interior sweet spot: the best watchdog is neither the smallest
	// nor the largest swept value (Eq. 9's trade-off made empirical)
	best := 0
	for i, p := range pts {
		if p.Y > pts[best].Y {
			best = i
		}
	}
	if best == 0 {
		t.Errorf("most frequent watchdog should not win (per-checkpoint cost dominates)")
	}
	if best == len(pts)-1 {
		t.Errorf("least frequent watchdog should not win (dead cycles dominate)")
	}
	// and the empirical optimum must sit within the sweep cell of the
	// Eq. 9 estimate for this machine (R ≈ 46 cycles, E/ε ≈ 20000 →
	// τ_B,opt ≈ 1300; the sweep is octave-spaced).
	if x := pts[best].X; x < 500 || x > 4000 {
		t.Errorf("empirical best watchdog %g far from Eq. 9's regime", x)
	}
}

func TestAblationHibernusMargin(t *testing.T) {
	fig, err := AblationHibernusMargin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prg, failed := fig.Series[0], fig.Series[1]
	// progress at the loosest margin must fall below the best observed:
	// idling away 8× the backup cost each period is wasteful
	best := prg.Points[0].Y
	for _, p := range prg.Points {
		if p.Y > best {
			best = p.Y
		}
	}
	loosest := prg.Points[len(prg.Points)-1].Y
	if loosest >= best {
		t.Errorf("loose margin should lose progress: %g vs best %g", loosest, best)
	}
	for _, p := range failed.Points {
		if p.Y < 0 || p.Y > 1 {
			t.Errorf("failed fraction %g out of range", p.Y)
		}
	}
}

func TestAblationMementosGap(t *testing.T) {
	fig, err := AblationMementosGap(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pts := fig.Series[0].Points
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.Y <= 0 || p.Y > 1 {
			t.Errorf("gap %g: progress %g out of range", p.X, p.Y)
		}
	}
}

func TestVariabilityStudy(t *testing.T) {
	fig, err := VariabilityStudy(context.Background(), 4000, 30)
	if err != nil {
		t.Fatal(err)
	}
	pts := fig.Series[0].Points
	if len(pts) < 10 {
		t.Fatalf("only %d period samples", len(pts))
	}
	lo, hi := 2.0, -1.0
	for _, p := range pts {
		if p.Y < 0 || p.Y > 1 {
			t.Fatalf("per-period p %g out of range", p.Y)
		}
		if p.Y < lo {
			lo = p.Y
		}
		if p.Y > hi {
			hi = p.Y
		}
	}
	// with τ_B a fifth of the period, dead-cycle luck must spread the
	// per-period progress noticeably (Fig. 4's message)
	if hi-lo < 0.01 {
		t.Errorf("no variability observed: [%g, %g]", lo, hi)
	}
}

func TestVariabilityStudyDefaults(t *testing.T) {
	fig, err := VariabilityStudy(context.Background(), 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series[0].Points) == 0 {
		t.Fatal("no samples with default period count")
	}
}
