package analyze

import (
	"testing"

	"ehmodel/internal/asm"
	"ehmodel/internal/isa"
	"ehmodel/internal/workload"
)

// taskProg builds a named workload in the given segment.
func taskProg(t *testing.T, name string, seg asm.Segment) *asm.Program {
	t.Helper()
	w, ok := workload.Get(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	prog, err := w.Build(workload.Options{Seg: seg})
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return prog
}

// TestTasksCutAllHazards is the decomposition pass's soundness claim:
// with every WAR-cut boundary applied, the region-scoped WAR pass finds
// no remaining hazard — every task is idempotent.
func TestTasksCutAllHazards(t *testing.T) {
	for _, name := range []string{"counter", "ds", "crc", "qsort"} {
		for _, seg := range []asm.Segment{asm.SRAM, asm.FRAM} {
			prog := taskProg(t, name, seg)
			tt, err := Tasks(prog)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, seg, err)
			}
			if len(tt.Tasks) == 0 {
				t.Fatalf("%s/%v: no tasks", name, seg)
			}

			p, err := prepare(prog)
			if err != nil {
				t.Fatal(err)
			}
			pcBounds := make(map[int]bool, len(tt.Boundaries))
			for _, pc := range tt.Boundaries {
				pcBounds[pc] = true
			}
			res := runWAR(p.g, p.acc, map[isa.Sys]bool{isa.SysTaskEnd: true}, pcBounds, false)
			if len(res.hazards) != 0 {
				t.Errorf("%s/%v: %d WAR hazards survive the task boundaries (first at pc %d)",
					name, seg, len(res.hazards), res.hazards[0].PC)
			}

			if tt.BufWords >= 0 {
				for _, task := range tt.Tasks {
					if task.StoreTop {
						t.Errorf("%s/%v: task %d unbounded but BufWords=%d", name, seg, task.ID, tt.BufWords)
					}
					if len(task.StoreWords) > tt.BufWords {
						t.Errorf("%s/%v: task %d write set %d exceeds BufWords %d",
							name, seg, task.ID, len(task.StoreWords), tt.BufWords)
					}
				}
			}
		}
	}
}
