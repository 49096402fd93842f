package experiments

import (
	"context"
	"fmt"
	"sort"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/runner"
	"ehmodel/internal/sweep"
	"ehmodel/internal/workload"
)

// Every sweep driver in this package builds a []sweep.Cell and executes
// it through the memoizing executor (sweep.Run). A cell's Build closure
// holds only the simulation's content — workload, strategy, supply — so
// identical configurations dedupe across figures and recall
// from the result store; model evaluation happens afterwards on the
// returned CellResults, with evaluation failures merged back into the
// sweep's error list so figures are assembled exactly as before.

// fixedConfig is the common fixed-per-period-supply configuration: a
// capacitor holding periodCycles ALU cycles of energy and a generous
// cycle ceiling. Environmental fields (RunTimeout, Interrupt) stay
// unset — the executor wires them, keeping them out of the cache key.
func fixedConfig(prog *asm.Program, pm energy.PowerModel, periodCycles float64, maxPeriods int) device.Config {
	e := periodCycles * pm.EnergyPerCycle(energy.ClassALU)
	capC, vmax, von, voff := device.FixedSupplyConfig(e)
	return device.Config{
		Prog: prog, Power: pm,
		CapC: capC, CapVMax: vmax, VOn: von, VOff: voff,
		MaxPeriods: maxPeriods, MaxCycles: 1 << 62,
	}
}

// fixedCell is the bench-supply sweep cell: run the workload bench,
// built with opts, under a fresh strategy from strat, supply
// periodCycles of energy per period under power model pm, allow up to
// 100000 periods, and require the workload to complete.
func fixedCell(label string, pm energy.PowerModel, periodCycles float64, bench string, opts workload.Options, strat func() device.Strategy) sweep.Cell {
	var progName, sysName string
	return sweep.Cell{
		Label: label,
		Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
			prog, err := workload.Program(ctx, bench, opts)
			if err != nil {
				return device.Config{}, nil, err
			}
			s := strat()
			progName, sysName = prog.Name, s.Name()
			return fixedConfig(prog, pm, periodCycles, 100000), s, nil
		},
		Verify: func(res *device.Result) error {
			if !res.Completed {
				return fmt.Errorf("experiments: %s/%s did not complete (%d periods)",
					sysName, progName, len(res.Periods))
			}
			return nil
		},
	}
}

// mergeEvalErrors folds post-run model-evaluation failures into the
// sweep's own error list, kept sorted by point index so summaries and
// figure notes are deterministic.
func mergeEvalErrors(errs runner.Errors, eval runner.Errors) runner.Errors {
	if len(eval) == 0 {
		return errs
	}
	errs = append(errs, eval...)
	sort.Slice(errs, func(i, j int) bool { return errs[i].Index < errs[j].Index })
	return errs
}
