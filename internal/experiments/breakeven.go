package experiments

import (
	"context"
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/runner"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/workload"
)

// BreakEvenPoint is one τ_B setting's backup and restore invocation
// rates.
type BreakEvenPoint struct {
	TauB             float64
	BackupsPerPeriod float64
	Progress         float64
}

// BreakEvenStudy verifies §IV-A3's structural claim empirically: the
// break-even point τ_B,be of Eq. 11 is where backups-per-period cross
// one — beyond it the device restores more often than it backs up, so
// restore cost dominates the optimization agenda. The study sweeps τ_B
// on the simulator (one cell per setting, through the memoizing
// executor), locates the empirical crossover, and compares it against
// Eq. 11 evaluated from the run's own measurements.
func BreakEvenStudy(ctx context.Context, run runner.Options) (*Figure, []BreakEvenPoint, float64, error) {
	pm := energy.MSP430Power()
	const periodCycles = 20000

	fig := &Figure{
		ID:     "breakeven",
		Title:  "Backup/restore invocation crossover vs Eq. 11 (§IV-A3)",
		XLabel: "τ_B (cycles)",
		YLabel: "backups per period",
		XLog:   true,
	}
	rate := Series{Label: "backups per period"}
	prg := Series{Label: "progress p"}

	tauBs := []uint64{1000, 2000, 4000, 8000, 12000, 16000, 24000, 32000}
	var cells []sweep.Cell
	for _, tauB := range tauBs {
		tauB := tauB
		cells = append(cells, sweep.Cell{
			Label: fmt.Sprintf("breakeven τ_B=%d cycles", tauB),
			Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
				w, _ := workload.Get("counter")
				prog, err := w.Build(workload.Options{Seg: asm.SRAM, Scale: 120})
				if err != nil {
					return device.Config{}, nil, err
				}
				cfg := fixedConfig(prog, pm, periodCycles, 16)
				return cfg, strategy.NewTimer(tauB, 0.1), nil
			},
		})
	}
	all, errs := sweep.Run(ctx, cells, run)
	if len(errs) > 0 {
		return nil, nil, 0, errs[0].Err
	}

	var pts []BreakEvenPoint
	var tauBE float64
	for i, tauB := range tauBs {
		res := all[i].Result
		periods := len(res.Periods)
		pt := BreakEvenPoint{
			TauB:             float64(tauB),
			BackupsPerPeriod: float64(res.Backups()) / float64(periods),
			Progress:         res.MeasuredProgress(),
		}
		pts = append(pts, pt)
		rate.Points = append(rate.Points, Point{X: pt.TauB, Y: pt.BackupsPerPeriod})
		prg.Points = append(prg.Points, Point{X: pt.TauB, Y: pt.Progress})

		// evaluate Eq. 11 once, from a mid-sweep run's measurements
		if tauB == 8000 {
			params, _ := PredictFromRun(res, all[i].Cfg, false)
			tauBE = params.TauBBreakEven()
		}
	}
	fig.Series = append(fig.Series, rate, prg)

	// locate the empirical crossover of one backup per period
	cross := 0.0
	for i := 1; i < len(pts); i++ {
		if pts[i-1].BackupsPerPeriod >= 1 && pts[i].BackupsPerPeriod < 1 {
			// log-linear interpolation between the straddling points
			x0, x1 := pts[i-1].TauB, pts[i].TauB
			y0, y1 := pts[i-1].BackupsPerPeriod, pts[i].BackupsPerPeriod
			cross = x0 + (1-y0)/(y1-y0)*(x1-x0)
			break
		}
	}
	fig.AddNote("Eq. 11 break-even τ_B,be = %.0f cycles (from measured parameters)", tauBE)
	if cross > 0 {
		fig.AddNote("empirical one-backup-per-period crossover ≈ %.0f cycles", cross)
	}
	fig.AddNote("beyond the crossover, restores (one per period) outnumber backups — optimize restores there")
	if cross == 0 {
		return fig, pts, tauBE, fmt.Errorf("experiments: sweep did not straddle the crossover")
	}
	return fig, pts, tauBE, nil
}
