package workload_test

import (
	"context"
	"testing"

	"ehmodel/internal/experiments"
	"ehmodel/internal/runner"
	"ehmodel/internal/workload"
)

// TestFigurePassAssemblesEachProgramOnce: one quick GenerateFigures
// pass assembles each (workload, options) program it asks for exactly
// once, so every cell that asks for a pair runs the one program
// assembled for it. The table lives as long as the pass: the next pass
// assembles its programs again, and a figure function called outside
// any pass builds a fresh program for each of its cells.
func TestFigurePassAssemblesEachProgramOnce(t *testing.T) {
	counts, restore := workload.CountBuilds()
	defer restore()
	ctx := context.Background()
	if _, failures := experiments.GenerateFigures(ctx, "all", true, runner.Options{}); len(failures) > 0 {
		t.Fatalf("quick pass failed: %v", failures)
	}
	pass := counts()
	for k, n := range pass {
		if n != 1 {
			t.Errorf("%s assembled %d times in one pass", k, n)
		}
	}
	// crc/sram/4 is asked for by more than a dozen cells: Figs. 6 and 7,
	// the breakdown and every Hibernus margin.
	if n := pass["crc/sram/4"]; n != 1 {
		t.Errorf("crc/sram/4 assembled %d times in one pass, want 1", n)
	}

	if _, failures := experiments.GenerateFigures(ctx, "table2", true, runner.Options{}); len(failures) > 0 {
		t.Fatalf("table2 pass failed: %v", failures)
	}
	const rsa = "rsa/sram/1"
	if got := counts()[rsa] - pass[rsa]; got != 1 {
		t.Errorf("a second pass assembled %s %d times, want 1", rsa, got)
	}

	if _, err := experiments.AblationMementosGap(ctx); err != nil {
		t.Fatalf("AblationMementosGap outside a pass: %v", err)
	}
	const ds = "ds/sram/4"
	if got := counts()[ds] - pass[ds]; got != 5 {
		t.Errorf("outside a pass the five mementos-gap cells assembled %s %d times, want 5", ds, got)
	}
}
