// Command ehlint statically analyzes assembled EH32 programs for the
// hazards that break intermittent execution: write-after-read conflicts
// inside checkpoint regions (replay bugs for software checkpointing),
// Clank-visible WAR words, loops whose inter-checkpoint store count is
// unbounded, dead stores, unreachable code, cold-boot register reads
// and calling-convention misuse. It also reports the static
// tracking-buffer footprint bound and, on request, checks a circular
// buffer size against Eq. 15 of the paper.
//
// With -tasks it instead runs the task decomposition pass
// (analyze.Tasks) and prints the serializable task table the
// checkpoint-free Alpaca runtime executes: one idempotent task per
// static boundary, each with its read count and write-set footprint.
//
// With -wcec it runs the forward-progress verifier (analyze.WCEC)
// and prints the per-region energy-horizon certificate table under
// both region semantics — checkpoint-to-checkpoint intervals and
// Alpaca task boundaries. -emax sets the budget E_max in ALU-cycle
// units of the MSP430 power model. Regions whose best case already
// exceeds the budget get a livelock verdict (the static twin of the
// simulator's no-forward-progress error) and the table carries the
// minimal extra boundary cuts that would repair the program.
//
// With plain -all (no pass flag) each workload's lint findings are
// followed by its task table and both certificate tables, so one
// invocation aggregates every static pass.
//
// Examples:
//
//	ehlint -workload crc                  # one workload, FRAM placement
//	ehlint -all -seg sram                 # every workload, all passes
//	ehlint -workload fir -json            # machine-readable findings
//	ehlint -workload circular -arrayn 4 -bufn 8 -taub 170   # Eq. 15 check
//	ehlint -tasks -workload counter       # the workload's task table
//	ehlint -tasks -golden                 # canonical all-workloads task tables
//	ehlint -wcec -workload counter        # WCEC certificates, both modes
//	ehlint -wcec -emax 500 -workload crc  # tight 500-ALU-cycle budget
//	ehlint -wcec -golden                  # canonical all-workloads certificates
//
// The exit status is 2 on configuration errors, 1 when any
// error-severity finding (or, under -wcec, any livelock verdict) is
// reported, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ehmodel/internal/analyze"
	"ehmodel/internal/asm"
	"ehmodel/internal/energy"
	"ehmodel/internal/workload"
)

// circularN and circularBufN size the synthetic circular-buffer kernel
// when linting -workload circular; main overrides them from
// -arrayn/-bufn when those are set.
var circularN, circularBufN = 4, 8

func main() {
	wname := flag.String("workload", "", "workload to lint: "+strings.Join(workload.Names(), ", "))
	all := flag.Bool("all", false, "lint every workload")
	segName := flag.String("seg", "fram", "data placement: sram or fram")
	scale := flag.Int("scale", 1, "workload problem-size multiplier")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	arrayN := flag.Int("arrayn", 0, "Eq. 15: logical array length n (0 = skip the check)")
	bufN := flag.Int("bufn", 0, "Eq. 15: circular buffer size N to check")
	writeback := flag.Int("writeback", 0, "Eq. 15: writeback window w")
	tauB := flag.Float64("taub", 0, "Eq. 15: target backup period τ_B in cycles")
	golden := flag.Bool("golden", false, "emit the canonical all-workloads findings summary (both placements) and exit")
	tasks := flag.Bool("tasks", false, "print task decomposition tables instead of lint findings")
	wcec := flag.Bool("wcec", false, "print WCEC forward-progress certificate tables instead of lint findings")
	emax := flag.Float64("emax", 20000, "WCEC energy budget E_max, in ALU-cycle units of the MSP430 power model")
	flag.Parse()

	if *emax <= 0 {
		fmt.Fprintln(os.Stderr, "ehlint: -emax must be positive")
		os.Exit(2)
	}
	budgetJ := *emax * energy.MSP430Power().EnergyPerCycle(energy.ClassALU)

	if *golden {
		emit := lintAllText
		switch {
		case *tasks:
			emit = tasksAllText
		case *wcec:
			emit = func(w io.Writer) error { return wcecAllText(w, budgetJ) }
		}
		if err := emit(os.Stdout); err != nil {
			die(err)
		}
		return
	}

	seg, err := segFor(*segName)
	if err != nil {
		die(err)
	}
	if *arrayN > 0 {
		circularN = *arrayN
	}
	if *bufN > 0 {
		circularBufN = *bufN
	}

	var names []string
	switch {
	case *all:
		names = workload.Names()
	case *wname != "":
		names = []string{*wname}
	default:
		fmt.Fprintln(os.Stderr, "ehlint: pass -workload <name> or -all")
		flag.Usage()
		os.Exit(2)
	}

	// Each workload is built once; every pass reads the same program.
	failed := false // an error-severity finding or a livelock verdict
	for _, name := range names {
		prog, err := buildOne(name, seg, *scale)
		if err != nil {
			die(err)
		}
		switch {
		case *tasks:
			tt, err := analyze.Tasks(prog)
			if err != nil {
				die(err)
			}
			fmt.Print(tt.String())
		case *wcec:
			for _, mode := range wcecModes {
				tbl, err := wcecOne(prog, mode, budgetJ)
				if err != nil {
					die(err)
				}
				if *jsonOut {
					b, err := tbl.JSON()
					if err != nil {
						die(err)
					}
					fmt.Println(string(b))
				} else {
					fmt.Print(tbl.String())
				}
				if tbl.FirstLivelock() != nil {
					failed = true
				}
			}
		default:
			rep, err := analyze.Analyze(prog)
			if err != nil {
				die(err)
			}
			if *jsonOut {
				b, err := rep.JSON()
				if err != nil {
					die(err)
				}
				fmt.Println(string(b))
			} else {
				fmt.Print(rep.Render())
			}
			if *arrayN > 0 {
				res, err := rep.Eq15(*arrayN, *bufN, *writeback, *tauB)
				if err != nil {
					die(err)
				}
				printEq15(os.Stdout, res)
			}
			// Plain -all aggregates every static pass per workload: the
			// findings above, then the task table and both certificate
			// tables (text mode only; -json keeps one document per line).
			if *all && !*jsonOut {
				if err := printAggregate(os.Stdout, name, prog, budgetJ); err != nil {
					die(err)
				}
			}
			for _, f := range rep.Findings {
				if f.Sev == analyze.SevError {
					failed = true
				}
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// die reports a configuration, build or analysis error and exits 2.
func die(err error) {
	fmt.Fprintln(os.Stderr, "ehlint:", err)
	os.Exit(2)
}

// wcecModes are the two region semantics every certificate table is
// printed under.
var wcecModes = []analyze.WCECMode{analyze.WCECCheckpoint, analyze.WCECTask}

// printAggregate emits the -all per-workload task and WCEC sections.
func printAggregate(w io.Writer, name string, prog *asm.Program, budgetJ float64) error {
	tt, err := analyze.Tasks(prog)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "-- tasks: %s --\n", name)
	fmt.Fprint(w, tt.String())
	fmt.Fprintf(w, "-- wcec: %s --\n", name)
	return printWCEC(w, prog, budgetJ)
}

// printWCEC renders prog's certificate tables under both region
// semantics.
func printWCEC(w io.Writer, prog *asm.Program, budgetJ float64) error {
	for _, mode := range wcecModes {
		tbl, err := wcecOne(prog, mode, budgetJ)
		if err != nil {
			return err
		}
		fmt.Fprint(w, tbl.String())
	}
	return nil
}

func segFor(name string) (asm.Segment, error) {
	switch name {
	case "sram":
		return asm.SRAM, nil
	case "fram":
		return asm.FRAM, nil
	default:
		return 0, fmt.Errorf("unknown segment %q (want sram or fram)", name)
	}
}

// buildOne assembles one workload. The name "circular" builds the
// §IV-D circular-buffer kernel (workload.CircularBuffer) sized by
// -arrayn/-bufn, the natural subject of the Eq. 15 check.
func buildOne(name string, seg asm.Segment, scale int) (*asm.Program, error) {
	var prog *asm.Program
	var err error
	if name == "circular" {
		prog, err = workload.CircularBuffer(circularN, circularBufN, 3*scale, seg)
	} else {
		w, ok := workload.Get(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have: circular, %s)", name, strings.Join(workload.Names(), ", "))
		}
		prog, err = w.Build(workload.Options{Seg: seg, Scale: scale})
	}
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	return prog, nil
}

// wcecOne runs the forward-progress verifier on prog under the given
// region semantics.
func wcecOne(prog *asm.Program, mode analyze.WCECMode, budgetJ float64) (*analyze.WCECTable, error) {
	return analyze.WCEC(prog, analyze.WCECOptions{Mode: mode, BudgetJ: budgetJ})
}

func printEq15(w io.Writer, r analyze.Eq15Result) {
	verdict := "NOT satisfied"
	if r.Satisfied {
		verdict = "satisfied"
	}
	fmt.Fprintf(w, "eq15: N=%d over n=%d (w=%d) gives tau_B = %g cycles at tau_store = %g; target %g %s (optimal N = %d)\n",
		r.BufN, r.ArrayN, r.Writeback, r.TauB, r.TauStore, r.TauBTarget, verdict, r.NOpt)
}

// eachPlacement builds every workload, in name order, under both data
// placements at scale 1 and hands each program to emit after its
// "== name/placement ==" header: the one loop behind the three golden
// files.
func eachPlacement(w io.Writer, emit func(*asm.Program) error) error {
	segs := []struct {
		name string
		seg  asm.Segment
	}{{"sram", asm.SRAM}, {"fram", asm.FRAM}}
	names := workload.Names()
	sort.Strings(names)
	for _, name := range names {
		for _, s := range segs {
			prog, err := buildOne(name, s.seg, 1)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "== %s/%s ==\n", name, s.name)
			if err := emit(prog); err != nil {
				return err
			}
		}
	}
	return nil
}

// lintAllText renders the canonical all-workloads lint summary used by
// the golden-output regression test and `make lint-workloads`: findings
// only (the footprint and τ_store lines stay out so the golden file
// tracks diagnostics, not performance model details).
func lintAllText(w io.Writer) error {
	return eachPlacement(w, func(prog *asm.Program) error {
		rep, err := analyze.Analyze(prog)
		if err != nil {
			return err
		}
		if len(rep.Findings) == 0 {
			fmt.Fprintln(w, "no findings")
		}
		for _, f := range rep.Findings {
			fmt.Fprintf(w, "%-7s %-28s %s: %s\n", f.Sev, f.Kind, f.Where, f.Msg)
		}
		return nil
	})
}

// wcecAllText renders the canonical all-workloads WCEC certificate
// tables used by the golden-output regression test and
// `make lint-wcec`: both region semantics per program, as
// WCECTable.String renders them.
func wcecAllText(w io.Writer, budgetJ float64) error {
	return eachPlacement(w, func(prog *asm.Program) error {
		return printWCEC(w, prog, budgetJ)
	})
}

// tasksAllText renders the canonical all-workloads task tables used by
// the golden-output regression test and `make lint-tasks`, as
// TaskTable.String renders them.
func tasksAllText(w io.Writer) error {
	return eachPlacement(w, func(prog *asm.Program) error {
		tt, err := analyze.Tasks(prog)
		if err != nil {
			return err
		}
		fmt.Fprint(w, tt.String())
		return nil
	})
}
