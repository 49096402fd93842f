package experiments

import (
	"context"
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/core"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/stats"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/workload"
)

// Design-space explorations beyond the paper's figures, in the style of
// the simulators its Related Work surveys (NVPsim's energy-buffer and
// NVM-technology sweeps), each cross-checked against the EH model.

// CapacitorSweep measures progress as the energy buffer grows — the
// model's E axis made empirical. One-time costs (restore, dead
// execution) amortize over larger buffers, so both the model and the
// measurement should rise toward the backup-limited asymptote. The
// workload is crc under DINO, over six supplies from 3000 to 96000 ALU
// cycles.
func CapacitorSweep(ctx context.Context) (*Figure, error) {
	const bench = "crc"
	periodCycles := []float64{3000, 6000, 12000, 24000, 48000, 96000}
	w, _ := workload.Get(bench)
	fig := &Figure{
		ID:     "exploration-capacitor",
		Title:  fmt.Sprintf("Energy-buffer sizing for %s under DINO", bench),
		XLabel: "per-period supply E (ALU cycles)",
		YLabel: "progress p",
		XLog:   true,
	}
	meas := Series{Label: "measured"}
	model := Series{Label: "EH model"}
	var cells []sweep.Cell
	for _, pc := range periodCycles {
		cells = append(cells, fixedCell(
			fmt.Sprintf("capacitor %s E=%g cycles", bench, pc),
			energy.MSP430Power(), pc,
			func() (*asm.Program, device.Strategy, error) {
				prog, err := w.Build(workload.Options{Seg: asm.SRAM, Scale: 8})
				if err != nil {
					return nil, nil, err
				}
				return prog, strategy.NewDINO(), nil
			}))
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()
	for i, pc := range periodCycles {
		if failed[i] {
			continue
		}
		res := all[i].Result
		_, pred := PredictFromRun(res, all[i].Cfg, false)
		meas.Points = append(meas.Points, Point{X: pc, Y: res.MeasuredProgress()})
		model.Points = append(model.Points, Point{X: pc, Y: pred})
	}
	fig.Series = append(fig.Series, meas, model)
	if n := len(meas.Points); n > 1 {
		fig.AddNote("p rises %.3f → %.3f as the buffer grows ×%g: one-time costs amortize",
			meas.Points[0].Y, meas.Points[n-1].Y, meas.Points[n-1].X/meas.Points[0].X)
	}
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(periodCycles)))
		return fig, errs
	}
	return fig, nil
}

// NVMComparisonPoint is one technology's measured and predicted
// progress.
type NVMComparisonPoint struct {
	NVM       string
	Measured  float64
	Predicted float64
}

// NVMComparison runs the same workload and backup cadence over FRAM,
// STT-RAM and Flash checkpoint memories, comparing measured progress
// with the model evaluated at each technology's Ω_B/σ_B. The workload
// is crc under a timer with τ_B = 2000 cycles.
func NVMComparison(ctx context.Context) (*Figure, []NVMComparisonPoint, error) {
	const (
		bench = "crc"
		tauB  = 2000
	)
	w, _ := workload.Get(bench)
	fig := &Figure{
		ID:     "exploration-nvm",
		Title:  fmt.Sprintf("Checkpoint NVM technology comparison (%s, timer τ_B=%d)", bench, tauB),
		XLabel: "technology index",
		YLabel: "progress p",
	}
	meas := Series{Label: "measured"}
	model := Series{Label: "EH model"}
	pm := energy.MSP430Power()
	nvms := energy.NVMProfiles()
	var cells []sweep.Cell
	for i := range nvms {
		nvm := nvms[i]
		cells = append(cells, sweep.Cell{
			Label: "nvm " + nvm.Name + "/" + bench,
			Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
				prog, err := w.Build(workload.Options{Seg: asm.SRAM, Scale: 8})
				if err != nil {
					return device.Config{}, nil, err
				}
				cfg := fixedConfig(prog, pm, 30000, 100000)
				cfg.SigmaB, cfg.SigmaR = nvm.SigmaB, nvm.SigmaR
				cfg.OmegaBExtra, cfg.OmegaRExtra = nvm.OmegaBExtra, nvm.OmegaRExtra
				return cfg, strategy.NewTimer(tauB, 0.1), nil
			},
			Verify: func(res *device.Result) error {
				if !res.Completed {
					return fmt.Errorf("experiments: %s on %s incomplete", bench, nvm.Name)
				}
				return nil
			},
		})
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()
	var pts []NVMComparisonPoint
	for i := range nvms {
		if failed[i] {
			continue
		}
		nvm, res := nvms[i], all[i].Result
		payload := stats.Mean(res.PayloadSamples())
		params := core.Params{
			E:       res.MeanSupply(),
			Epsilon: res.MeasuredEpsilon(),
			TauB:    float64(tauB),
			SigmaB:  nvm.SigmaB,
			OmegaB:  pm.EnergyPerCycle(energy.ClassMem)/nvm.SigmaB + nvm.OmegaBExtra,
			AB:      payload,
			SigmaR:  nvm.SigmaR,
			OmegaR:  pm.EnergyPerCycle(energy.ClassMem)/nvm.SigmaR + nvm.OmegaRExtra,
			AR:      payload,
		}
		pt := NVMComparisonPoint{
			NVM:       nvm.Name,
			Measured:  res.MeasuredProgress(),
			Predicted: params.Progress(),
		}
		pts = append(pts, pt)
		meas.Points = append(meas.Points, Point{X: float64(i), Y: pt.Measured})
		model.Points = append(model.Points, Point{X: float64(i), Y: pt.Predicted})
		fig.AddNote("x=%d: %s — measured %.4f, model %.4f", i, pt.NVM, pt.Measured, pt.Predicted)
	}
	fig.Series = append(fig.Series, meas, model)
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(nvms)))
		return fig, pts, errs
	}
	return fig, pts, nil
}
