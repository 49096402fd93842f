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
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// ChargingPoint is one harvest level's measured and predicted progress.
type ChargingPoint struct {
	EpsilonCOverEps float64 // measured ε_C/ε
	Measured        float64 // ε·τ_P / E (capacitor supply only)
	Predicted       float64 // Eq. 8 with the measured ε_C
}

// ChargingStudy validates the model's in-period charging terms (the
// ε_C appearances in Eqs. 2, 4, 7 and 8): a bench-style constant
// harvester tops the capacitor up while the device executes, so the
// per-period work exceeds what the capacitor alone could fund. Progress
// normalized to the capacitor supply E grows toward (and past) 1 as
// ε_C/ε rises — the divergence §III derives. Each point compares the
// measurement with Eq. 8 evaluated at the measured ε_C.
func ChargingStudy(ctx context.Context) (*Figure, []ChargingPoint, error) {
	pm := energy.MSP430Power()
	const (
		periodCycles = 20000
		tauB         = 2000
		alphaB       = 0.1
	)

	fig := &Figure{
		ID:     "charging",
		Title:  "In-period charging validation: p vs ε_C/ε (Eq. 8's charging terms)",
		XLabel: "ε_C/ε",
		YLabel: "progress p = ε·τ_P/E",
	}
	// resistance sweep: ∞ (no harvester) down to near the sustain point
	rs := []float64{0, 400e3, 150e3, 80e3, 50e3, 35e3}
	var cells []sweep.Cell
	for _, r := range rs {
		r := r
		cells = append(cells, sweep.Cell{
			Label: fmt.Sprintf("charging r=%g Ω", r),
			Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
				w, _ := workload.Get("counter")
				prog, err := w.Build(workload.Options{Seg: asm.SRAM, Scale: 120})
				if err != nil {
					return device.Config{}, nil, err
				}
				cfg := fixedConfig(prog, pm, periodCycles, 12)
				if r > 0 {
					src := trace.Constant(3.0, 1, 0.01)
					h, err := energy.NewHarvester(src, r, 0.7)
					if err != nil {
						return device.Config{}, nil, err
					}
					cfg.Harvester = h
				}
				return cfg, strategy.NewTimer(tauB, alphaB), nil
			},
		})
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()

	meas := Series{Label: "measured"}
	model := Series{Label: "EH model"}
	var pts []ChargingPoint
	var evalErrs runner.Errors
	for i, r := range rs {
		if failed[i] {
			continue
		}
		pt, err := chargingEval(pm, r, tauB, alphaB, &all[i])
		if err != nil {
			evalErrs = append(evalErrs, &runner.RunError{
				Index: i,
				Label: fmt.Sprintf("charging r=%g Ω", r),
				Err:   err,
			})
			continue
		}
		pts = append(pts, pt)
		meas.Points = append(meas.Points, Point{X: pt.EpsilonCOverEps, Y: pt.Measured})
		model.Points = append(model.Points, Point{X: pt.EpsilonCOverEps, Y: pt.Predicted})
	}
	errs = mergeEvalErrors(errs, evalErrs)
	fig.Series = append(fig.Series, meas, model)
	if len(pts) > 0 {
		last := pts[len(pts)-1]
		fig.AddNote("at ε_C/ε = %.2f, p = %.3f measured vs %.3f model — charging extends every period's work",
			last.EpsilonCOverEps, last.Measured, last.Predicted)
	}
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(rs)))
		return fig, pts, errs
	}
	return fig, pts, nil
}

// chargingEval aggregates one run's failure-terminated periods (full
// budgets only) and evaluates Eq. 8 at the measured ε_C.
func chargingEval(pm energy.PowerModel, r, tauB, alphaB float64, cr *sweep.CellResult) (ChargingPoint, error) {
	res := cr.Result
	var supply, progressE, harvested float64
	var activeCycles uint64
	for i := range res.Periods {
		if res.Completed && i == len(res.Periods)-1 {
			continue
		}
		p := &res.Periods[i]
		supply += p.SupplyE
		progressE += p.ProgressE
		harvested += p.HarvestedE
		activeCycles += p.ProgressCycles + p.DeadCycles + p.BackupCycles + p.RestoreCycles + p.IdleCycles
	}
	if supply == 0 || activeCycles == 0 {
		return ChargingPoint{}, fmt.Errorf("experiments: charging run too short (r=%g)", r)
	}
	epsC := harvested / float64(activeCycles)
	eps := res.MeasuredEpsilon()

	params := core.Params{
		E:        supply / float64(len(res.Periods)-boolInt(res.Completed)),
		Epsilon:  eps,
		EpsilonC: epsC,
		TauB:     tauB,
		SigmaB:   cr.Cfg.SigmaB,
		OmegaB:   pm.EnergyPerCycle(energy.ClassMem) / cr.Cfg.SigmaB,
		AB:       float64(cpu.ArchStateBytes),
		AlphaB:   alphaB,
		SigmaR:   cr.Cfg.SigmaR,
		OmegaR:   pm.EnergyPerCycle(energy.ClassMem) / cr.Cfg.SigmaR,
		AR:       float64(cpu.ArchStateBytes) + alphaB*tauB,
	}
	if err := params.Validate(); err != nil {
		return ChargingPoint{}, fmt.Errorf("experiments: charging params (r=%g): %w", r, err)
	}
	return ChargingPoint{
		EpsilonCOverEps: epsC / eps,
		Measured:        progressE / supply,
		Predicted:       params.Progress(),
	}, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
