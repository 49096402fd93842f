package workload

import (
	"reflect"
	"testing"

	"ehmodel/internal/asm"
)

// TestAllWorkloadsMatchOracle is the foundational correctness check:
// every workload, in both data placements, produces exactly its
// reference output when run continuously.
func TestAllWorkloadsMatchOracle(t *testing.T) {
	for _, w := range All() {
		for _, seg := range []asm.Segment{asm.SRAM, asm.FRAM} {
			w, seg := w, seg
			t.Run(w.Name+"/"+seg.String(), func(t *testing.T) {
				t.Parallel()
				opts := Options{Seg: seg}
				prog, err := w.Build(opts)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				p, err := ProfileProgram(newMem(t), prog, 50_000_000)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if p.Cycles == 0 {
					t.Fatal("no cycles executed")
				}
				want := w.Ref(opts)
				if !reflect.DeepEqual(p.Output, want) {
					t.Fatalf("output mismatch:\n got %v\nwant %v", p.Output, want)
				}
			})
		}
	}
}

// TestScaleGrowsWork: Scale must increase executed cycles.
func TestScaleGrowsWork(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p1, err := w.Build(Options{Seg: asm.SRAM, Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			p2, err := w.Build(Options{Seg: asm.SRAM, Scale: 2})
			if err != nil {
				t.Fatal(err)
			}
			ms := newMem(t)
			r1, err := ProfileProgram(ms, p1, 100_000_000)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := ProfileProgram(ms, p2, 100_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if r2.Cycles <= r1.Cycles {
				t.Errorf("scale 2 (%d cycles) should exceed scale 1 (%d)", r2.Cycles, r1.Cycles)
			}
		})
	}
}

func TestRegistryContents(t *testing.T) {
	if len(TableII()) != 6 {
		t.Error("Table II must have six benchmarks")
	}
	if len(MiBench()) != 8 {
		t.Error("MiBench set must have eight kernels")
	}
	if _, ok := Get("counter"); !ok {
		t.Error("counter missing")
	}
	if _, ok := Get("nope"); ok {
		t.Error("unknown workload found")
	}
	names := Names()
	if len(names) != len(All()) {
		t.Error("Names/All mismatch")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("names not sorted")
		}
	}
}

func TestOptionsScaleDefault(t *testing.T) {
	if (Options{}).scale() != 1 || (Options{Scale: -3}).scale() != 1 || (Options{Scale: 4}).scale() != 4 {
		t.Error("scale defaulting wrong")
	}
}

// TestWorkloadsHaveRuntimeMarkers: every workload must expose checkpoint
// sites and task boundaries so Mementos and DINO have hooks.
func TestWorkloadsHaveRuntimeMarkers(t *testing.T) {
	for _, w := range All() {
		prog, err := w.Build(Options{Seg: asm.SRAM})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var chkpt, taskEnd bool
		for _, in := range prog.Code {
			if in.Op.String() == "sys" {
				switch in.Imm {
				case 1:
					chkpt = true
				case 3:
					taskEnd = true
				}
			}
		}
		if !chkpt {
			t.Errorf("%s: no checkpoint sites", w.Name)
		}
		if !taskEnd {
			t.Errorf("%s: no task boundaries", w.Name)
		}
	}
}
