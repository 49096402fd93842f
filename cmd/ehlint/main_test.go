package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ehmodel/internal/analyze"
	"ehmodel/internal/asm"
	"ehmodel/internal/energy"
	"ehmodel/internal/workload"
)

// TestGoldenWorkloadFindings pins the lint findings for every built-in
// workload (both data placements) to results/ehlint_workloads.golden.
// A diff means a workload changed its hazard surface or the analyzer
// changed its verdicts; regenerate deliberately with
//
//	make lint-workloads
//
// after reviewing the new findings.
func TestGoldenWorkloadFindings(t *testing.T) {
	var got bytes.Buffer
	if err := lintAllText(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "results", "ehlint_workloads.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with `make lint-workloads`)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("lint findings drifted from %s; regenerate with `make lint-workloads` after reviewing.\n%s",
			path, diffHint(string(want), got.String()))
	}
}

// TestGoldenTaskTables pins the task decomposition pass's output for
// every built-in workload (both data placements) to
// results/ehlint_tasks.golden. A diff means task boundaries, footprints
// or the Eq. 15 buffer bound moved; regenerate deliberately with
//
//	make lint-tasks
//
// after reviewing the new decomposition.
func TestGoldenTaskTables(t *testing.T) {
	var got bytes.Buffer
	if err := tasksAllText(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "results", "ehlint_tasks.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with `make lint-tasks`)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("task tables drifted from %s; regenerate with `make lint-tasks` after reviewing.\n%s",
			path, diffHint(string(want), got.String()))
	}
}

// TestNoBootWindowHazards asserts the satellite invariant directly: no
// workload may reach a WAR store before its first checkpoint site.
func TestNoBootWindowHazards(t *testing.T) {
	var got bytes.Buffer
	if err := lintAllText(&got); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(got.String(), "\n") {
		if strings.Contains(line, "war-before-first-checkpoint") {
			t.Errorf("boot-window hazard: %s", strings.TrimSpace(line))
		}
	}
}

// diffHint shows the first diverging lines — enough to locate the drift
// without a full diff implementation.
func diffHint(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		wl, gl := "", ""
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("first difference at line %d:\n want: %s\n  got: %s", i+1, wl, gl)
		}
	}
	return "outputs differ only in length"
}

// defaultBudgetJ mirrors the CLI's -emax default of 20000 ALU-cycle
// units.
func defaultBudgetJ() float64 {
	return 20000 * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)
}

// TestGoldenWCECTables pins the forward-progress verifier's certificate
// tables for every built-in workload (both data placements, both region
// semantics) to results/ehlint_wcec.golden. A diff means a worst-case
// bound, verdict or repair suggestion moved; regenerate deliberately
// with
//
//	make lint-wcec
//
// after reviewing the new certificates.
func TestGoldenWCECTables(t *testing.T) {
	var got bytes.Buffer
	if err := wcecAllText(&got, defaultBudgetJ()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "results", "ehlint_wcec.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with `make lint-wcec`)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("WCEC certificates drifted from %s; regenerate with `make lint-wcec` after reviewing.\n%s",
			path, diffHint(string(want), got.String()))
	}
}

// TestGoldenWCECParses asserts that no workload the golden tables
// cover is statically infeasible (livelock) at the default budget,
// under either placement or region semantics — the catalog must stay
// runnable.
func TestGoldenWCECParses(t *testing.T) {
	tables := 0
	for _, name := range workload.Names() {
		for _, seg := range []asm.Segment{asm.SRAM, asm.FRAM} {
			prog, err := buildOne(name, seg, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []analyze.WCECMode{analyze.WCECCheckpoint, analyze.WCECTask} {
				tbl, err := wcecOne(prog, mode, defaultBudgetJ())
				if err != nil {
					t.Fatalf("%s/%v %s: %v", name, seg, mode, err)
				}
				tables++
				if fl := tbl.FirstLivelock(); fl != nil {
					t.Errorf("%s/%v %s: livelock at region entry=%d under the default budget",
						name, seg, mode, fl.Entry)
				}
			}
		}
	}
	if tables == 0 {
		t.Fatal("no certificate tables computed")
	}
}

// TestAllAggregatesSections pins the shape of the plain -all
// aggregation: each workload's findings are followed by a task table
// section and a WCEC section holding both region semantics.
func TestAllAggregatesSections(t *testing.T) {
	names := workload.Names()
	for _, name := range names {
		prog, err := buildOne(name, asm.FRAM, 1)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := printAggregate(&got, name, prog, defaultBudgetJ()); err != nil {
			t.Fatal(err)
		}
		s := got.String()
		if !strings.Contains(s, fmt.Sprintf("-- tasks: %s --\ntasktable ", name)) {
			t.Errorf("%s: missing task section:\n%s", name, s)
		}
		if !strings.Contains(s, fmt.Sprintf("-- wcec: %s --\nwcectable ", name)) {
			t.Errorf("%s: missing wcec section:\n%s", name, s)
		}
		if !strings.Contains(s, "mode=checkpoint") || !strings.Contains(s, "mode=task") {
			t.Errorf("%s: wcec section must carry both region semantics:\n%s", name, s)
		}
	}
}
