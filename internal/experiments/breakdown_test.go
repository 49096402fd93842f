package experiments

import (
	"context"
	"testing"
)

func TestBreakdownComparison(t *testing.T) {
	_, rows, err := BreakdownComparison(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]BreakdownRow{}
	for _, r := range rows {
		byName[r.System] = r
		sum := r.Progress + r.Dead + r.Backup + r.Restore + r.Idle + r.Residual
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %g", r.System, sum)
		}
		for _, v := range []float64{r.Progress, r.Dead, r.Backup, r.Restore, r.Idle} {
			if v < 0 || v > 1 {
				t.Errorf("%s: fraction %g out of range", r.System, v)
			}
		}
	}
	// signature behaviours: Hibernus hibernates (idle > 0, zero-ish
	// dead); DINO's full-snapshot tasks make it the backup-heaviest of
	// the SRAM runtimes; Clank's 80-byte checkpoints are far lighter
	// than DINO's.
	if byName["hibernus"].Idle <= 0 {
		t.Error("hibernus should record idle (hibernation) energy")
	}
	if byName["hibernus"].Dead > 0.02 {
		t.Errorf("hibernus dead fraction %g should be negligible", byName["hibernus"].Dead)
	}
	if byName["dino"].Backup <= byName["chain"].Backup {
		t.Error("dino's full snapshots should out-cost chain's task-data commits")
	}
	if byName["clank"].Backup >= byName["dino"].Backup {
		t.Error("clank's register checkpoints should undercut dino's snapshots")
	}
}
