package experiments

import (
	"context"
	"testing"
)

func TestCapacitorSweep(t *testing.T) {
	fig, err := CapacitorSweep(context.Background(), "crc", nil)
	if err != nil {
		t.Fatal(err)
	}
	meas, model := fig.Series[0], fig.Series[1]
	// progress must rise with the energy buffer (one-time costs
	// amortize) and the model must track the measurement closely
	for i := 1; i < len(meas.Points); i++ {
		if meas.Points[i].Y < meas.Points[i-1].Y-0.01 {
			t.Errorf("measured p fell as buffer grew at E=%g", meas.Points[i].X)
		}
	}
	if meas.Points[len(meas.Points)-1].Y <= meas.Points[0].Y {
		t.Error("no amortization benefit observed")
	}
	for i := range meas.Points {
		diff := meas.Points[i].Y - model.Points[i].Y
		if diff < -0.12 || diff > 0.12 {
			t.Errorf("E=%g: model %g vs measured %g", meas.Points[i].X, model.Points[i].Y, meas.Points[i].Y)
		}
	}
}

func TestCapacitorSweepUnknown(t *testing.T) {
	if _, err := CapacitorSweep(context.Background(), "nope", nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestNVMComparison(t *testing.T) {
	_, pts, err := NVMComparison(context.Background(), "crc", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d technologies", len(pts))
	}
	byName := map[string]NVMComparisonPoint{}
	for _, p := range pts {
		byName[p.NVM] = p
		if p.Measured <= 0 || p.Measured > 1 {
			t.Errorf("%s: measured %g out of range", p.NVM, p.Measured)
		}
	}
	// technology ordering: FRAM > STT-RAM > Flash for checkpoint-heavy
	// execution
	if !(byName["fram"].Measured > byName["sttram"].Measured &&
		byName["sttram"].Measured > byName["flash"].Measured) {
		t.Errorf("technology ordering violated: %+v", pts)
	}
	// the model must rank them identically
	if !(byName["fram"].Predicted > byName["sttram"].Predicted &&
		byName["sttram"].Predicted > byName["flash"].Predicted) {
		t.Errorf("model ranking diverges: %+v", pts)
	}
}

func TestNVMComparisonUnknown(t *testing.T) {
	if _, _, err := NVMComparison(context.Background(), "nope", 2000); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
