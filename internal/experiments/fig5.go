package experiments

import (
	"context"
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/core"
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/runner"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/workload"
)

// Fig5Config parametrizes the §V-A hardware-validation reproduction: a
// fixed-interval multi-backup system sweeping the time between backups
// across several active-period lengths, with measured progress compared
// against the EH model's τ_D ∈ [0, τ_B] bounds.
type Fig5Config struct {
	// DurationsS are active-period lengths in seconds (paper: 0.5,
	// 0.375, 0.25, 0.125).
	DurationsS []float64
	// TauBsMS is the backup-interval sweep in milliseconds (paper: 0.18
	// to 7.1 ms).
	TauBsMS []float64
	// AlphaB is application state per cycle (paper: 0.1 B/cycle).
	AlphaB float64
	// PeriodsPerRun is how many full active periods each configuration
	// measures (default 4).
	PeriodsPerRun int
}

func (c *Fig5Config) setDefaults() {
	if c.DurationsS == nil {
		c.DurationsS = []float64{0.5, 0.375, 0.25, 0.125}
	}
	if c.TauBsMS == nil {
		c.TauBsMS = []float64{0.18, 0.5, 1.0, 2.0, 3.0, 4.5, 5.5, 7.1}
	}
	if c.AlphaB == 0 {
		c.AlphaB = 0.1
	}
	if c.PeriodsPerRun == 0 {
		c.PeriodsPerRun = 4
	}
}

// QuickFig5Config is a scaled-down configuration (same shape, ~100×
// less simulated work) for tests and fast benches.
func QuickFig5Config() Fig5Config {
	return Fig5Config{
		DurationsS:    []float64{0.004, 0.002},
		TauBsMS:       []float64{0.18, 0.5, 1.0, 1.6},
		AlphaB:        0.1,
		PeriodsPerRun: 3,
	}
}

// Fig5Point is one measured configuration with its model bounds.
type Fig5Point struct {
	DurationS  float64
	TauBCycles float64
	Measured   float64
	Lo, Hi     float64 // EH-model worst/best-case progress
	Within     bool
}

// Fig5 runs the sweep on the device simulator — one cell per
// active-period duration and τ_B, duration-major, executed through the
// memoizing sweep layer — and evaluates the model bounds for each point.
// Failed points (deadline, panic, cancellation, invalid model
// parameters) are dropped from the figure with a note and reported
// through the returned error; the surviving points still populate the
// figure, merged in input order so the output is byte-identical at any
// worker count and any cache temperature.
func Fig5(ctx context.Context, cfg Fig5Config) (*Figure, []Fig5Point, error) {
	cfg.setDefaults()
	pm := energy.MSP430Power()
	fig := &Figure{
		ID:     "fig5",
		Title:  "Multi-backup validation: measured progress vs EH-model bounds (Fig. 5)",
		XLabel: "τ_B (cycles)",
		YLabel: "progress p",
	}
	type job struct{ dur, tauB float64 }
	var jobs []job
	var cells []sweep.Cell
	for _, dur := range cfg.DurationsS {
		eSupply := dur * pm.PowerW[energy.ClassALU] // period energy at ~1.05 mW
		for _, ms := range cfg.TauBsMS {
			j := job{dur: dur, tauB: ms * 1e-3 * pm.FreqHz}
			jobs = append(jobs, j)
			cells = append(cells, sweep.Cell{
				Label: fmt.Sprintf("fig5 duration=%gs τ_B=%g cycles", j.dur, j.tauB),
				Build: fig5Build(cfg, pm, eSupply, j.tauB),
			})
		}
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()

	var pts []Fig5Point
	var evalErrs runner.Errors
	within, idx := 0, 0
	for _, dur := range cfg.DurationsS {
		meas := Series{Label: fmt.Sprintf("measured %gs", dur)}
		lo := Series{Label: fmt.Sprintf("lower bound %gs", dur)}
		hi := Series{Label: fmt.Sprintf("upper bound %gs", dur)}
		for range cfg.TauBsMS {
			i := idx
			idx++
			if failed[i] {
				continue
			}
			pt, err := fig5Eval(cfg, pm, jobs[i].dur, jobs[i].tauB, &all[i])
			if err != nil {
				evalErrs = append(evalErrs, &runner.RunError{
					Index: i,
					Label: fmt.Sprintf("fig5 duration=%gs τ_B=%g cycles", jobs[i].dur, jobs[i].tauB),
					Err:   err,
				})
				continue
			}
			pts = append(pts, pt)
			if pt.Within {
				within++
			}
			meas.Points = append(meas.Points, Point{X: pt.TauBCycles, Y: pt.Measured})
			lo.Points = append(lo.Points, Point{X: pt.TauBCycles, Y: pt.Lo})
			hi.Points = append(hi.Points, Point{X: pt.TauBCycles, Y: pt.Hi})
		}
		fig.Series = append(fig.Series, meas, lo, hi)
	}
	errs = mergeEvalErrors(errs, evalErrs)
	fig.AddNote("%d/%d measured points fall within the EH-model bounds", within, len(pts))
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(jobs)))
		return fig, pts, errs
	}
	return fig, pts, nil
}

// fig5Build assembles one configuration's cell content: a counter
// workload sized so it cannot finish before the requested number of
// periods elapses, on a fixed supply of eSupply joules per period.
func fig5Build(cfg Fig5Config, pm energy.PowerModel, eSupply, tauB float64) func(context.Context) (device.Config, device.Strategy, error) {
	return func(ctx context.Context) (device.Config, device.Strategy, error) {
		totalCycles := float64(cfg.PeriodsPerRun+1) * eSupply / pm.EnergyPerCycle(energy.ClassALU)
		scale := int(totalCycles/20000) + 1
		prog, err := workload.Program(ctx, "counter", workload.Options{Seg: asm.SRAM, Scale: scale})
		if err != nil {
			return device.Config{}, nil, err
		}
		capC, vmax, von, voff := device.FixedSupplyConfig(eSupply)
		return device.Config{
			Prog:       prog,
			Power:      pm,
			CapC:       capC,
			CapVMax:    vmax,
			VOn:        von,
			VOff:       voff,
			MaxPeriods: cfg.PeriodsPerRun,
			MaxCycles:  1 << 62,
		}, strategy.NewTimer(uint64(tauB), cfg.AlphaB), nil
	}
}

// fig5Eval derives the EH-model bounds for one measured run.
func fig5Eval(cfg Fig5Config, pm energy.PowerModel, dur, tauB float64, cr *sweep.CellResult) (Fig5Point, error) {
	res := cr.Result
	params := core.Params{
		E:        res.MeanSupply(),
		Epsilon:  res.MeasuredEpsilon(),
		EpsilonC: 0,
		TauB:     tauB,
		SigmaB:   cr.Cfg.SigmaB,
		OmegaB:   pm.EnergyPerCycle(energy.ClassMem) / cr.Cfg.SigmaB,
		AB:       float64(cpu.ArchStateBytes),
		AlphaB:   cfg.AlphaB,
		SigmaR:   cr.Cfg.SigmaR,
		OmegaR:   pm.EnergyPerCycle(energy.ClassMem) / cr.Cfg.SigmaR,
		AR:       float64(cpu.ArchStateBytes) + cfg.AlphaB*tauB,
		AlphaR:   0,
	}
	if err := params.Validate(); err != nil {
		return Fig5Point{}, fmt.Errorf("experiments: fig5 model params: %w", err)
	}
	loP, hiP := params.ProgressBounds()
	m := res.MeasuredProgress()
	const slack = 0.02 // instruction-granularity and final-interval noise
	return Fig5Point{
		DurationS:  dur,
		TauBCycles: tauB,
		Measured:   m,
		Lo:         loP,
		Hi:         hiP,
		Within:     m >= loP-slack && m <= hiP+slack,
	}, nil
}
