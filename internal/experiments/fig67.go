package experiments

import (
	"context"
	"fmt"
	"math"

	"ehmodel/internal/asm"
	"ehmodel/internal/core"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/stats"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/workload"
)

// The run shape of the three-systems validation (§V-A, Figs. 6 and 7):
// a per-period energy budget in ALU cycles small enough that the
// Table II benchmarks span multiple periods, and the workload
// problem-size multiplier.
const (
	fig6PeriodCycles = 12000
	fig6Scale        = 4
)

// Fig6Point is one benchmark × system validation sample.
type Fig6Point struct {
	Bench     string
	System    string
	Measured  float64
	Predicted float64
	RelErr    float64
}

// fig6Systems returns the validated runtimes in paper order.
func fig6Systems() []struct {
	name   string
	single bool
	make   func() device.Strategy
} {
	return []struct {
		name   string
		single bool
		make   func() device.Strategy
	}{
		{"hibernus", true, func() device.Strategy { return strategy.NewHibernus() }},
		{"mementos", false, func() device.Strategy { return strategy.NewMementos() }},
		{"dino", false, func() device.Strategy { return strategy.NewDINO() }},
	}
}

// PredictFromRun builds EH-model parameters from a measured run and
// returns the model's progress prediction — the workflow behind the
// paper's second intro question ("can a programmer estimate how well
// their application will perform under a specific architectural
// configuration?"). The run supplies E, ε, τ_B and the checkpoint
// payload; the device config supplies the NVM costs. A snapshotting
// system's full checkpoint payload is a per-backup compulsory cost, so
// it maps to A_B with α_B = 0. Set single for single-backup runtimes
// (Eq. 12); otherwise Eq. 8 applies.
func PredictFromRun(res *device.Result, cfg device.Config, single bool) (core.Params, float64) {
	pm := cfg.Power
	payload := stats.Mean(res.PayloadSamples())
	params := core.Params{
		E:        res.MeanSupply(),
		Epsilon:  res.MeasuredEpsilon(),
		EpsilonC: 0,
		TauB:     math.Max(res.MeanTauB(), 1),
		SigmaB:   cfg.SigmaB,
		OmegaB:   pm.EnergyPerCycle(energy.ClassMem)/cfg.SigmaB + cfg.OmegaBExtra,
		AB:       payload,
		AlphaB:   0,
		SigmaR:   cfg.SigmaR,
		OmegaR:   pm.EnergyPerCycle(energy.ClassMem)/cfg.SigmaR + cfg.OmegaRExtra,
		AR:       payload,
		AlphaR:   0,
	}
	var p float64
	if single {
		p = params.ProgressSingleBackup()
	} else {
		p = params.Progress()
	}
	return params, math.Min(p, 1)
}

// Fig6 measures forward progress for Hibernus, Mementos and DINO across
// the Table II benchmarks — one cell per system and benchmark,
// system-major — and compares against the EH model's prediction,
// reporting per-system geometric-mean error as the paper does.
func Fig6(ctx context.Context) (*Figure, []Fig6Point, error) {
	fig := &Figure{
		ID:     "fig6",
		Title:  "Measured vs EH-model-predicted progress (Fig. 6)",
		XLabel: "measured p",
		YLabel: "predicted p",
	}
	systems := fig6Systems()
	benches := workload.TableII()
	type job struct{ sys, bench int }
	var jobs []job
	var cells []sweep.Cell
	for si := range systems {
		sys := systems[si]
		for bi := range benches {
			w := benches[bi]
			jobs = append(jobs, job{sys: si, bench: bi})
			cells = append(cells, fixedCell(
				fmt.Sprintf("fig6 %s/%s", sys.name, w.Name),
				energy.MSP430Power(), fig6PeriodCycles,
				func() (*asm.Program, device.Strategy, error) {
					prog, err := w.Build(workload.Options{Seg: asm.SRAM, Scale: fig6Scale})
					if err != nil {
						return nil, nil, err
					}
					return prog, sys.make(), nil
				}))
		}
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()

	var pts []Fig6Point
	perSystemErr := map[string][]float64{}
	series := make([]Series, len(systems))
	for si, sys := range systems {
		series[si] = Series{Label: sys.name}
	}
	for i, j := range jobs {
		if failed[i] {
			continue
		}
		sys, w := systems[j.sys], benches[j.bench]
		res := all[i].Result
		_, pred := PredictFromRun(res, all[i].Cfg, sys.single)
		meas := res.MeasuredProgress()
		pt := Fig6Point{
			Bench:     w.Name,
			System:    sys.name,
			Measured:  meas,
			Predicted: pred,
			RelErr:    stats.RelErr(pred, meas),
		}
		pts = append(pts, pt)
		perSystemErr[pt.System] = append(perSystemErr[pt.System], pt.RelErr)
		series[j.sys].Points = append(series[j.sys].Points, Point{X: pt.Measured, Y: pt.Predicted})
	}
	fig.Series = append(fig.Series, series...)
	var allErrs []float64
	for _, sys := range systems {
		es := perSystemErr[sys.name]
		if len(es) == 0 {
			continue
		}
		fig.AddNote("%s: geomean |error| = %.2f%%", sys.name, 100*stats.GeoMean(es))
		allErrs = append(allErrs, es...)
	}
	if len(allErrs) > 0 {
		fig.AddNote("overall geomean |error| = %.2f%%", 100*stats.GeoMean(allErrs))
	}
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(jobs)))
		return fig, pts, errs
	}
	return fig, pts, nil
}

// Fig7Point is one DINO benchmark's progress against how close its task
// granularity sits to the model's optimal τ_B.
type Fig7Point struct {
	Bench      string
	Measured   float64
	TauB       float64
	TauBOpt    float64
	Similarity float64 // min(τ_B/τ_B,opt, τ_B,opt/τ_B) ∈ (0, 1]
}

// Fig7 reproduces the τ_B-optimality correlation: benchmarks whose DINO
// task length lands near τ_B,opt make the most progress.
func Fig7(ctx context.Context) (*Figure, []Fig7Point, error) {
	fig := &Figure{
		ID:     "fig7",
		Title:  "Progress vs similarity of τ_B to τ_B,opt under DINO (Fig. 7)",
		XLabel: "similarity min(τ_B/τ_B,opt, τ_B,opt/τ_B)",
		YLabel: "measured p",
	}
	benches := workload.TableII()
	var cells []sweep.Cell
	for bi := range benches {
		w := benches[bi]
		cells = append(cells, fixedCell(
			"fig7 dino/"+w.Name,
			energy.MSP430Power(), fig6PeriodCycles,
			func() (*asm.Program, device.Strategy, error) {
				prog, err := w.Build(workload.Options{Seg: asm.SRAM, Scale: fig6Scale})
				if err != nil {
					return nil, nil, err
				}
				return prog, strategy.NewDINO(), nil
			}))
	}
	all, errs := sweep.Run(ctx, cells)
	failed := errs.FailedSet()

	var pts []Fig7Point
	s := Series{Label: "dino benchmarks"}
	for i := range benches {
		if failed[i] {
			continue
		}
		res := all[i].Result
		params, _ := PredictFromRun(res, all[i].Cfg, false)
		opt := params.TauBOpt()
		tauB := params.TauB
		sim := tauB / opt
		if sim > 1 {
			sim = 1 / sim
		}
		pt := Fig7Point{
			Bench:      benches[i].Name,
			Measured:   res.MeasuredProgress(),
			TauB:       tauB,
			TauBOpt:    opt,
			Similarity: sim,
		}
		pts = append(pts, pt)
		s.Points = append(s.Points, Point{X: pt.Similarity, Y: pt.Measured})
	}
	fig.Series = append(fig.Series, s)
	var xs, ys []float64
	for _, pt := range pts {
		xs = append(xs, pt.Similarity)
		ys = append(ys, pt.Measured)
	}
	if r, err := stats.Pearson(xs, ys); err == nil {
		fig.AddNote("Pearson correlation(similarity, progress) = %.3f", r)
	}
	if len(errs) > 0 {
		fig.AddNote("%s", errs.Summary(len(benches)))
		return fig, pts, errs
	}
	return fig, pts, nil
}
