package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"ehmodel/internal/runner"
)

// The figure registry is the one catalog of everything this repo can
// regenerate — each paper figure, table and case study keyed by the ID
// the ehfigs CLI and the ehserve service both accept. Centralizing it
// here means a figure added to the catalog is immediately reachable
// from both front ends and from tests.

// Failure records one figure that could not be (fully) generated.
type Failure struct {
	ID  string
	Err error
}

// FigureIDs returns every identifier GenerateFigures accepts besides
// "all", in catalog order.
func FigureIDs() []string {
	return []string{
		"2", "3", "4", "5", "6", "7", "8", "9", "10", "11",
		"table2", "storemajor", "storemajor-device", "circular", "bitprecision",
		"clank-buffers", "clank-watchdog", "hibernus-margin", "mementos-gap",
		"variability", "capacitor", "nvm", "breakdown", "breakeven",
		"charging", "tail",
	}
}

// KnownFigureID reports whether id names a catalog entry ("all" counts).
func KnownFigureID(id string) bool {
	if id == "all" {
		return true
	}
	for _, k := range FigureIDs() {
		if k == id {
			return true
		}
	}
	return false
}

// GenerateFigures builds the requested figures ("all" or a single ID).
// Figures that fail are recorded rather than aborting the batch; a
// driver that returns a partial figure alongside its error contributes
// both — the survivors render, the error lands in the failure report.
// Simulation sweeps execute through the process-default sweep executor,
// so a front end that installed a memoizing store serves repeats from
// cache.
//
// Every requested driver runs at once, and one worker pool bounds the
// simulations of all of them together: one driver's sweep fills the
// slots another's leaves idle. The pool is the context's (see
// runner.WithLimit), or one of run.Workers slots when it has none.
// Figures and failures still come back in catalog order, so the output
// is the same at any worker count.
func GenerateFigures(ctx context.Context, which string, quick bool, run runner.Options) ([]*Figure, []Failure) {
	figs, failures := runDrivers(runner.WithLimit(ctx, run.Workers), drivers(which, quick))
	if len(figs) == 0 && len(failures) == 0 {
		failures = append(failures, Failure{ID: which, Err: fmt.Errorf("unknown figure %q", which)})
	}
	return figs, failures
}

// driver is one independently runnable catalog entry. id names its
// failures; gen returns its figures (possibly partial) and its error.
type driver struct {
	id  string
	gen func(ctx context.Context) ([]*Figure, error)
}

// runDrivers runs every driver in its own goroutine and returns their
// figures and failures in list order, whatever order they finish in. A
// driver that panics becomes its own Failure, wrapping a
// *runner.PanicError; the other drivers' figures are unaffected.
func runDrivers(ctx context.Context, ds []driver) ([]*Figure, []Failure) {
	type outcome struct {
		figs []*Figure
		err  error
	}
	outs := make([]outcome, len(ds))
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					outs[i] = outcome{err: &runner.PanicError{Value: r, Stack: debug.Stack()}}
				}
			}()
			figs, err := d.gen(ctx)
			outs[i] = outcome{figs, err}
		}()
	}
	wg.Wait()
	var figs []*Figure
	var failures []Failure
	for i, o := range outs {
		figs = append(figs, o.figs...)
		if o.err != nil {
			failures = append(failures, Failure{ID: ds[i].id, Err: o.err})
		}
	}
	return figs, failures
}

// one adapts a single-figure generator's result; a nil figure (nothing
// survived) contributes none.
func one(f *Figure, err error) ([]*Figure, error) {
	if f == nil {
		return nil, err
	}
	return []*Figure{f}, err
}

// drivers lists the drivers that build the requested figures, in the
// order their output is reported. Figs. 8 and 9 share one driver (and
// the failure ID "8/9"); each ablation is a driver of its own.
func drivers(which string, quick bool) []driver {
	want := func(id string) bool { return which == "all" || which == id }
	var ds []driver
	add := func(id string, gen func(context.Context) ([]*Figure, error)) {
		if want(id) {
			ds = append(ds, driver{id, gen})
		}
	}
	analytic := func(id string, f func() *Figure) {
		add(id, func(context.Context) ([]*Figure, error) { return []*Figure{f()}, nil })
	}
	characterization := CharacterizationConfig{}
	if quick {
		characterization = QuickCharacterizationConfig()
	}

	analytic("2", Fig2)
	analytic("3", Fig3)
	analytic("4", Fig4)
	add("5", func(ctx context.Context) ([]*Figure, error) {
		cfg := Fig5Config{}
		if quick {
			cfg = QuickFig5Config()
		}
		f, _, err := Fig5(ctx, cfg)
		return one(f, err)
	})
	add("6", func(ctx context.Context) ([]*Figure, error) {
		f, _, err := Fig6(ctx)
		return one(f, err)
	})
	add("7", func(ctx context.Context) ([]*Figure, error) {
		f, _, err := Fig7(ctx)
		return one(f, err)
	})
	if want("8") || want("9") {
		ds = append(ds, driver{"8/9", func(ctx context.Context) ([]*Figure, error) {
			f8, f9, _, err := Fig8And9(ctx, characterization)
			var figs []*Figure
			if f8 != nil && want("8") {
				figs = append(figs, f8)
			}
			if f9 != nil && want("9") {
				figs = append(figs, f9)
			}
			return figs, err
		}})
	}
	add("10", func(ctx context.Context) ([]*Figure, error) {
		f, _, err := Fig10(ctx, characterization)
		return one(f, err)
	})
	analytic("11", Fig11)
	add("table2", func(context.Context) ([]*Figure, error) {
		rows, err := Table2()
		if err != nil {
			return nil, err
		}
		f := &Figure{ID: "table2", Title: "Table II benchmark inventory (measured characteristics)"}
		for _, r := range rows {
			f.AddNote("%-6s %s — %d instrs, %d cycles, %.1f%% loads, %.1f%% stores, τ_store %.0f, %d B sram",
				r.Name, r.Desc, r.Instructions, r.Cycles, 100*r.LoadFrac, 100*r.StoreFrac, r.TauStore, r.SRAMFootprint)
		}
		return []*Figure{f}, nil
	})
	add("storemajor", func(context.Context) ([]*Figure, error) {
		f, _, err := CaseStoreMajor()
		return one(f, err)
	})
	add("storemajor-device", func(ctx context.Context) ([]*Figure, error) {
		f, _, err := CaseStoreMajorDevice(ctx)
		return one(f, err)
	})
	add("circular", func(ctx context.Context) ([]*Figure, error) {
		f, _, _, err := CaseCircularBuffer(ctx)
		return one(f, err)
	})
	add("clank-buffers", func(ctx context.Context) ([]*Figure, error) { return one(AblationClankBuffers(ctx)) })
	add("clank-watchdog", func(ctx context.Context) ([]*Figure, error) { return one(AblationClankWatchdog(ctx)) })
	add("hibernus-margin", func(ctx context.Context) ([]*Figure, error) { return one(AblationHibernusMargin(ctx)) })
	add("mementos-gap", func(ctx context.Context) ([]*Figure, error) { return one(AblationMementosGap(ctx)) })
	add("tail", func(ctx context.Context) ([]*Figure, error) {
		f, _, err := TailLatencyStudy(ctx)
		return one(f, err)
	})
	add("charging", func(ctx context.Context) ([]*Figure, error) {
		f, _, err := ChargingStudy(ctx)
		return one(f, err)
	})
	add("breakeven", func(ctx context.Context) ([]*Figure, error) {
		f, _, _, err := BreakEvenStudy(ctx)
		return one(f, err)
	})
	add("breakdown", func(ctx context.Context) ([]*Figure, error) {
		f, _, err := BreakdownComparison(ctx)
		return one(f, err)
	})
	add("capacitor", func(ctx context.Context) ([]*Figure, error) {
		return one(CapacitorSweep(ctx))
	})
	add("nvm", func(ctx context.Context) ([]*Figure, error) {
		f, _, err := NVMComparison(ctx)
		return one(f, err)
	})
	add("variability", func(ctx context.Context) ([]*Figure, error) {
		return one(VariabilityStudy(ctx))
	})
	analytic("bitprecision", func() *Figure {
		r := CaseBitPrecision()
		f := &Figure{ID: "case-bitprecision", Title: "Reduced bit-precision payoff (§VI-C)"}
		f.AddNote("τ_B,bit = %.1f cycles", r.TauBBit)
		f.AddNote("Δp for a 1-bit α_B cut at τ_B,bit: %.4f", r.GainOneBit)
		f.AddNote("Δp for the same cut at τ_B,opt: %.4f", r.GainAtOpt)
		return f
	})
	return ds
}
