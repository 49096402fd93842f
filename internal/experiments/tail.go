package experiments

import (
	"context"
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/stats"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/trace"
	"ehmodel/internal/workload"
)

// TailPoint is one τ_B setting's per-period progress distribution.
type TailPoint struct {
	TauB   float64
	MeanP  float64
	P5     float64 // 5th percentile per-period progress (tail)
	Spread float64 // max − min per-period progress
}

// TailLatencyStudy makes §IV-A2's design trade-off empirical: under a
// varying harvested supply, long backup intervals raise the *average*
// per-period progress while widening its distribution, so the τ_B that
// maximizes the worst periods (tail) sits at or below the τ_B that
// maximizes the mean — the structural content of Eq. 10's
// τ_B,opt(wc) < τ_B,opt. The sweep is one cell per τ_B through the
// memoizing executor, each run for 60 periods.
func TailLatencyStudy(ctx context.Context) (*Figure, []TailPoint, error) {
	const periods = 60
	pm := energy.MSP430Power()

	fig := &Figure{
		ID:     "tail",
		Title:  "Average vs tail per-period progress across τ_B (§IV-A2)",
		XLabel: "τ_B (cycles)",
		YLabel: "per-period progress",
		XLog:   true,
	}
	meanS := Series{Label: "mean p"}
	tailS := Series{Label: "5th percentile p"}

	tauBs := []uint64{250, 500, 1000, 2000, 4000, 8000, 14000}
	// Every cell harvests the same trace; a run and a cell key only
	// read it, so the cells share one instance.
	tr := trace.Generate(trace.MultiPeak, 10, 1e-3, 77)
	var cells []sweep.Cell
	for _, tauB := range tauBs {
		tauB := tauB
		cells = append(cells, sweep.Cell{
			Label: fmt.Sprintf("tail τ_B=%d cycles", tauB),
			Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
				prog, err := workload.Program(ctx, "counter", workload.Options{Seg: asm.SRAM, Scale: 600})
				if err != nil {
					return device.Config{}, nil, err
				}
				h, err := energy.NewHarvester(tr, 40000, 0.7)
				if err != nil {
					return device.Config{}, nil, err
				}
				cfg := fixedConfig(prog, pm, 20000, periods)
				cfg.Harvester = h
				return cfg, strategy.NewTimer(tauB, 0.1), nil
			},
		})
	}
	all, errs := sweep.Run(ctx, cells)
	if len(errs) > 0 {
		return nil, nil, errs[0].Err
	}

	var pts []TailPoint
	for i, tauB := range tauBs {
		res := all[i].Result
		var samples []float64
		for j := range res.Periods {
			if res.Completed && j == len(res.Periods)-1 {
				continue
			}
			p := &res.Periods[j]
			samples = append(samples, p.ProgressE/(p.SupplyE+p.HarvestedE))
		}
		if len(samples) < periods/2 {
			return nil, nil, fmt.Errorf("experiments: tail study τ_B=%d too short (%d periods)", tauB, len(samples))
		}
		pt := TailPoint{
			TauB:   float64(tauB),
			MeanP:  stats.Mean(samples),
			P5:     stats.Percentile(samples, 5),
			Spread: stats.Percentile(samples, 100) - stats.Percentile(samples, 0),
		}
		pts = append(pts, pt)
		meanS.Points = append(meanS.Points, Point{X: pt.TauB, Y: pt.MeanP})
		tailS.Points = append(tailS.Points, Point{X: pt.TauB, Y: pt.P5})
	}
	fig.Series = append(fig.Series, meanS, tailS)

	bestMean, bestTail := pts[0], pts[0]
	for _, pt := range pts {
		if pt.MeanP > bestMean.MeanP {
			bestMean = pt
		}
		if pt.P5 > bestTail.P5 {
			bestTail = pt
		}
	}
	fig.AddNote("mean-optimal τ_B ≈ %.0f (mean p %.3f); tail-optimal τ_B ≈ %.0f (p5 %.3f)",
		bestMean.TauB, bestMean.MeanP, bestTail.TauB, bestTail.P5)
	fig.AddNote("Eq. 10's takeaway: design for tail latency by backing up more often than the average-case optimum")
	return fig, pts, nil
}
