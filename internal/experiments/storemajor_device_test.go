package experiments

import (
	"context"
	"testing"

	"ehmodel/internal/workload"
)

// TestCaseStoreMajorDevice validates §VI-A end to end on the simulator:
// the loop order's effect on dirty-block backup traffic shows up as
// measured progress, in the direction Eq. 14 predicts.
func TestCaseStoreMajorDevice(t *testing.T) {
	fig, pts, err := CaseStoreMajorDevice(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("%d points", len(pts))
	}
	byKey := map[[2]interface{}]StoreMajorDevicePoint{}
	for _, p := range pts {
		byKey[[2]interface{}{p.Order, p.SigmaRatio}] = p
	}
	lm := func(r float64) StoreMajorDevicePoint { return byKey[[2]interface{}{workload.LoadMajor, r}] }
	sm := func(r float64) StoreMajorDevicePoint { return byKey[[2]interface{}{workload.StoreMajor, r}] }

	// slow NVM writes: store-major must win decisively
	if sm(0.1).Progress <= lm(0.1).Progress*1.1 {
		t.Errorf("σ_B=σ_load/10: store-major %.4f should clearly beat load-major %.4f",
			sm(0.1).Progress, lm(0.1).Progress)
	}
	// symmetric bandwidth: near tie (within ~5%), the §VI-A takeaway
	// that surprises conventional intuition
	if gap := sm(1).Progress - lm(1).Progress; gap < 0 || gap > 0.05 {
		t.Errorf("σ_B=σ_load: expected a near tie, gap %.4f", gap)
	}
	// load-major's dirty payload must be several times store-major's at
	// every ratio — the β_block/β_store inflation
	for _, r := range []float64{0.1, 0.5, 1, 2} {
		if lm(r).DirtyBytes < 2*sm(r).DirtyBytes {
			t.Errorf("ratio %g: dirty payload %f vs %f lacks the block-granularity inflation",
				r, lm(r).DirtyBytes, sm(r).DirtyBytes)
		}
	}
	if len(fig.Series) != 2 || len(fig.Notes) == 0 {
		t.Error("figure incomplete")
	}
}

// TestTransposeOracle: both orders commit the identical checksum (the
// transpose result is order-independent).
func TestTransposeOracle(t *testing.T) {
	for _, order := range []workload.TransposeOrder{workload.LoadMajor, workload.StoreMajor} {
		prog, err := workload.Transpose(order, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Name == "" {
			t.Error("unnamed program")
		}
	}
	if _, err := workload.Transpose(workload.LoadMajor, 15, 1); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if _, err := workload.Transpose(workload.LoadMajor, 16, 0); err == nil {
		t.Error("zero reps accepted")
	}
	if workload.LoadMajor.String() == workload.StoreMajor.String() {
		t.Error("order names collide")
	}
}
