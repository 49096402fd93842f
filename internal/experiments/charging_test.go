package experiments

import (
	"context"
	"math"
	"testing"
)

// TestChargingStudy validates the model's ε_C terms: measured progress
// (normalized to the capacitor supply) tracks Eq. 8 as in-period
// harvesting grows, and crosses p = 1 where the model says extra
// harvested work exceeds the capacitor budget.
func TestChargingStudy(t *testing.T) {
	_, pts, err := ChargingStudy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 5 {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if math.Abs(p.Measured-p.Predicted) > 0.07 {
			t.Errorf("ε_C/ε=%.3f: measured %.4f vs model %.4f", p.EpsilonCOverEps, p.Measured, p.Predicted)
		}
		if i > 0 && p.EpsilonCOverEps <= pts[i-1].EpsilonCOverEps {
			t.Errorf("harvest sweep not increasing at %d", i)
		}
		if i > 0 && p.Measured < pts[i-1].Measured-1e-9 {
			t.Errorf("measured p fell as charging grew at ε_C/ε=%.3f", p.EpsilonCOverEps)
		}
	}
	// the strongest harvest level must push measured progress past the
	// capacitor-only ceiling of 1 — §III's divergence made visible
	if last := pts[len(pts)-1]; last.Measured <= 1 {
		t.Errorf("expected p > 1 at ε_C/ε=%.3f, got %.4f", last.EpsilonCOverEps, last.Measured)
	}
	if pts[0].Measured >= 1 {
		t.Error("no-harvest baseline cannot exceed 1")
	}
}
