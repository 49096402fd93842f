// Package characterize reproduces the paper's §V-B simulator
// characterization: running MiBench-like kernels on a Clank-style
// architecture fed by RF voltage traces to profile the time between
// backups τ_B (Fig. 8) and dead cycles τ_D (Fig. 9), and running the
// hypothetical mixed-volatility store-queue processor across watchdog
// settings to profile application state α_B (Fig. 10). Every sweep is a
// list of cells run through the memoizing executor; Clank's post-run
// counters travel through the result store as cell extras.
package characterize

import (
	"context"
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/runner"
	"ehmodel/internal/stats"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// The fixed setup of the §V-B Clank runs.
const (
	// clankPeriodCycles sizes the capacitor so one full active period
	// holds roughly this many ALU cycles of energy: comfortably above
	// the 8000-cycle watchdog but far below a workload's length, so
	// every run spans many power failures.
	clankPeriodCycles = 20000
	// clankScale is the workload problem-size multiplier, sized so each
	// benchmark crosses several active periods.
	clankScale = 6
	// clankTraceSeconds is the generated trace length.
	clankTraceSeconds = 10
	// clankHarvestR and clankHarvestEta configure the transducer. 20 kΩ
	// keeps peak harvested power below the core's draw, so the supply is
	// genuinely intermittent (ε_C < ε); smaller resistances can sustain
	// the device indefinitely during trace peaks.
	clankHarvestR   = 20000
	clankHarvestEta = 0.7
)

// ClankRun is one benchmark × trace characterization result.
type ClankRun struct {
	Bench  string
	Trace  trace.Kind
	TauB   stats.Summary // cycles between backups
	TauD   stats.Summary // dead cycles per failed period
	Stats  strategy.ClankStats
	Result *device.Result
}

// clankTrace generates the supply trace of kind.
func clankTrace(kind trace.Kind) *trace.Trace {
	return trace.Generate(kind, clankTraceSeconds, 1e-3, 7+int64(kind))
}

// clankCell builds the one-benchmark × trace cell behind RunClank and
// TauBProfile, harvesting tr (clankTrace's output for kind; a run and a
// cell key only read it, so cells may share it). Clank's
// violation/overflow/watchdog counters live on the strategy, not the
// Result, so the Extras hook serializes them into the store — a cache
// hit recalls them without a strategy instance.
func clankCell(bench string, kind trace.Kind, tr *trace.Trace) sweep.Cell {
	return sweep.Cell{
		Label: fmt.Sprintf("clank %s under %v trace", bench, kind),
		Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
			prog, err := workload.Program(ctx, bench, workload.Options{Seg: asm.FRAM, Scale: clankScale})
			if err != nil {
				return device.Config{}, nil, err
			}
			pm := energy.CortexM0Power() // Clank is modelled on a Cortex-M0+
			e := clankPeriodCycles * pm.EnergyPerCycle(energy.ClassALU)
			capC, vmax, von, voff := device.FixedSupplyConfig(e)
			h, err := energy.NewHarvester(tr, clankHarvestR, clankHarvestEta)
			if err != nil {
				return device.Config{}, nil, err
			}
			return device.Config{
				Prog:      prog,
				Power:     pm,
				CapC:      capC,
				CapVMax:   vmax,
				VOn:       von,
				VOff:      voff,
				Harvester: h,
			}, strategy.NewClank(), nil
		},
		Extras: func(s device.Strategy, res *device.Result) (any, error) {
			return s.(*strategy.Clank).Stats(), nil
		},
		Verify: func(res *device.Result) error {
			if !res.Completed {
				return fmt.Errorf("characterize: %s did not complete under %v (periods=%d)", bench, kind, len(res.Periods))
			}
			return nil
		},
	}
}

// clankRunFrom assembles the characterization row from a cell result,
// decoding the stored Clank counters.
func clankRunFrom(bench string, kind trace.Kind, cr *sweep.CellResult) (*ClankRun, error) {
	r := &ClankRun{
		Bench:  bench,
		Trace:  kind,
		TauB:   stats.Summarize(cr.Result.TauBSamples()),
		TauD:   stats.Summarize(cr.Result.TauDSamples()),
		Result: cr.Result,
	}
	if _, err := cr.DecodeExtras(&r.Stats); err != nil {
		return nil, fmt.Errorf("characterize: %s/%v extras: %w", bench, kind, err)
	}
	return r, nil
}

// RunClank executes one benchmark under Clank powered by the given
// trace kind and returns its τ_B/τ_D profile.
func RunClank(ctx context.Context, bench string, kind trace.Kind) (*ClankRun, error) {
	cell := clankCell(bench, kind, clankTrace(kind))
	all, errs := sweep.Run(ctx, []sweep.Cell{cell})
	if len(errs) > 0 {
		return nil, errs[0].Err
	}
	return clankRunFrom(bench, kind, &all[0])
}

// TauBProfile runs every benchmark across every trace kind in parallel
// — the data behind Figs. 8 and 9 — as one cell per benchmark and trace
// kind.
// Surviving rows are returned ordered benchmark-major, trace-minor
// regardless of completion order; failed runs are dropped and reported
// in errs.
func TauBProfile(ctx context.Context, benches []string) (out []*ClankRun, errs runner.Errors, err error) {
	if err := knownBenches(benches); err != nil {
		return nil, nil, err
	}
	kinds := trace.Kinds()
	// A trace depends only on its kind: generate each once and share it
	// across the benchmarks.
	traces := make([]*trace.Trace, len(kinds))
	for i, kind := range kinds {
		traces[i] = clankTrace(kind)
	}
	type job struct {
		bench string
		kind  trace.Kind
	}
	var jobs []job
	var cells []sweep.Cell
	for _, bench := range benches {
		for i, kind := range kinds {
			jobs = append(jobs, job{bench: bench, kind: kind})
			cells = append(cells, clankCell(bench, kind, traces[i]))
		}
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()
	var evalErrs runner.Errors
	for i, j := range jobs {
		if failed[i] {
			continue
		}
		r, rerr := clankRunFrom(j.bench, j.kind, &all[i])
		if rerr != nil {
			evalErrs = append(evalErrs, &runner.RunError{
				Index: i,
				Label: fmt.Sprintf("clank %s under %v trace", j.bench, j.kind),
				Err:   rerr,
			})
			continue
		}
		out = append(out, r)
	}
	if len(evalErrs) > 0 {
		errs = append(errs, evalErrs...)
	}
	return out, errs, nil
}

// knownBenches rejects unknown benchmark names up front, so a typo is
// a setup error rather than a silently dropped sweep point.
func knownBenches(benches []string) error {
	for _, b := range benches {
		if _, ok := workload.Get(b); !ok {
			return fmt.Errorf("characterize: unknown workload %q", b)
		}
	}
	return nil
}

// AlphaBRun is one benchmark's α_B profile across watchdog settings
// (Fig. 10).
type AlphaBRun struct {
	Bench string
	// PerWatchdog holds the mean α_B (bytes/cycle) for each watchdog
	// period, index-aligned with the Watchdogs argument.
	PerWatchdog []float64
	// AlphaB summarizes the per-watchdog means: its Mean is the bar of
	// Fig. 10 and its SEM the error bar.
	AlphaB stats.Summary
}

// DefaultWatchdogs is the paper's Fig. 10 sweep: 250–3000 cycles in
// increments of 250.
func DefaultWatchdogs() []uint64 {
	var out []uint64
	for w := uint64(250); w <= 3000; w += 250 {
		out = append(out, w)
	}
	return out
}

// AlphaBProfile characterizes application state per cycle on the
// mixed-volatility store-queue processor across watchdog periods. The
// sweep holds one cell per benchmark and watchdog setting —
// historically the watchdog sweep ran serially inside one point, but as
// individual cells every setting parallelizes and memoizes. The bar is
// still the per-benchmark mean over watchdogs, and errs still reports
// whole benchmarks (a benchmark is dropped if any of its watchdog runs
// failed, indexed as before by benchmark position).
func AlphaBProfile(ctx context.Context, benches []string, watchdogs []uint64) (out []*AlphaBRun, errs runner.Errors, err error) {
	if err := knownBenches(benches); err != nil {
		return nil, nil, err
	}
	var cells []sweep.Cell
	for _, bench := range benches {
		bench := bench
		for _, wd := range watchdogs {
			wd := wd
			cells = append(cells, sweep.Cell{
				Label: fmt.Sprintf("mixed-volatility α_B profile of %s wd=%d", bench, wd),
				Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
					prog, err := workload.Program(ctx, bench, workload.Options{Seg: asm.SRAM})
					if err != nil {
						return device.Config{}, nil, err
					}
					pm := energy.MSP430Power()
					// ample fixed supply: α_B is a workload property, not a
					// power property
					capC, vmax, von, voff := device.FixedSupplyConfig(1.0)
					return device.Config{
						Prog:    prog,
						Power:   pm,
						CapC:    capC,
						CapVMax: vmax,
						VOn:     von,
						VOff:    voff,
					}, strategy.NewMixedVolatility(wd), nil
				},
				Verify: func(res *device.Result) error {
					if !res.Completed {
						return fmt.Errorf("characterize: %s watchdog %d did not complete", bench, wd)
					}
					return nil
				},
			})
		}
	}
	all, cellErrs := sweep.Run(ctx, cells)
	failed := cellErrs.FailedSet()
	for bi, bench := range benches {
		ar := &AlphaBRun{Bench: bench}
		var benchErr error
		for wi := range watchdogs {
			i := bi*len(watchdogs) + wi
			if failed[i] {
				if benchErr == nil {
					for _, re := range cellErrs {
						if re.Index == i {
							benchErr = re.Err
							break
						}
					}
				}
				continue
			}
			ar.PerWatchdog = append(ar.PerWatchdog, stats.Mean(all[i].Result.AlphaBSamples()))
		}
		if benchErr != nil {
			errs = append(errs, &runner.RunError{
				Index: bi,
				Label: "mixed-volatility α_B profile of " + bench,
				Err:   benchErr,
			})
			continue
		}
		ar.AlphaB = stats.Summarize(ar.PerWatchdog)
		out = append(out, ar)
	}
	return out, errs, nil
}
