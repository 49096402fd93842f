package experiments

import (
	"context"
	"fmt"

	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/workload"
)

// StoreMajorDevicePoint is one loop order × NVM bandwidth measurement
// on the full device simulator.
type StoreMajorDevicePoint struct {
	Order      workload.TransposeOrder
	SigmaRatio float64 // σ_B/σ_load on the NVM
	Progress   float64
	DirtyBytes float64 // mean backup payload (α_B·τ_B made concrete)
	Cycles     uint64
}

// CaseStoreMajorDevice runs Listing 1 end-to-end on the intermittent
// device with a mixed-volatility cache and a checkpoint-aware runtime —
// the §VI-A case study as an execution rather than an equation. For
// each NVM write/read bandwidth ratio it reports both loop orders'
// progress; Eq. 14 predicts store-major wins exactly when writes are
// slow. One cell per ratio × order, through the memoizing executor.
func CaseStoreMajorDevice(ctx context.Context) (*Figure, []StoreMajorDevicePoint, error) {
	const (
		n    = 16
		reps = 6
	)
	pm := energy.MSP430Power()
	fig := &Figure{
		ID:     "case-storemajor-device",
		Title:  "Store-major vs load-major transpose on the device simulator (§VI-A)",
		XLabel: "σ_B/σ_load",
		YLabel: "progress p",
		XLog:   true,
	}
	series := map[workload.TransposeOrder]*Series{
		workload.LoadMajor:  {Label: "load-major"},
		workload.StoreMajor: {Label: "store-major"},
	}
	want := workload.TransposeRef(n)
	ratios := []float64{0.1, 0.5, 1, 2}
	orders := []workload.TransposeOrder{workload.LoadMajor, workload.StoreMajor}
	type job struct {
		ratio float64
		order workload.TransposeOrder
	}
	var jobs []job
	var cells []sweep.Cell
	for _, ratio := range ratios {
		for _, order := range orders {
			ratio, order := ratio, order
			jobs = append(jobs, job{ratio: ratio, order: order})
			cells = append(cells, sweep.Cell{
				Label: fmt.Sprintf("transpose %v σ-ratio=%g", order, ratio),
				Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
					prog, err := workload.Transpose(order, n, reps)
					if err != nil {
						return device.Config{}, nil, err
					}
					cfg := fixedConfig(prog, pm, 20000, 100000)
					cfg.SigmaB, cfg.SigmaR = 2*ratio, 2 // σ_load fixed at FRAM speed
					cfg.CacheBlockSize, cfg.CacheSets, cfg.CacheWays = 32, 16, 2
					return cfg, strategy.NewCacheVolatile(), nil
				},
				Verify: func(res *device.Result) error {
					if !res.Completed {
						return fmt.Errorf("experiments: transpose %v σ-ratio %g incomplete", order, ratio)
					}
					if len(res.Output) != 1 || res.Output[0] != want[0] {
						return fmt.Errorf("experiments: transpose %v output %v, want %v", order, res.Output, want)
					}
					return nil
				},
			})
		}
	}
	all, errs := sweep.Run(ctx, cells)
	if len(errs) > 0 {
		return nil, nil, errs[0].Err
	}

	var pts []StoreMajorDevicePoint
	for i, j := range jobs {
		res := all[i].Result
		var dirty, cnt float64
		for _, p := range res.Periods {
			for _, b := range p.AppBytes {
				dirty += float64(b)
				cnt++
			}
		}
		if cnt > 0 {
			dirty /= cnt
		}
		pt := StoreMajorDevicePoint{
			Order:      j.order,
			SigmaRatio: j.ratio,
			Progress:   res.MeasuredProgress(),
			DirtyBytes: dirty,
			Cycles:     res.TotalCycles,
		}
		pts = append(pts, pt)
		s := series[j.order]
		s.Points = append(s.Points, Point{X: j.ratio, Y: pt.Progress})
	}
	fig.Series = append(fig.Series, *series[workload.LoadMajor], *series[workload.StoreMajor])

	// annotate the dirty-footprint asymmetry at the slow-write corner
	var lmDirty, smDirty float64
	for _, pt := range pts {
		if pt.SigmaRatio == 0.1 {
			if pt.Order == workload.LoadMajor {
				lmDirty = pt.DirtyBytes
			} else {
				smDirty = pt.DirtyBytes
			}
		}
	}
	fig.AddNote("mean backup payload at σ_B=σ_load/10: load-major %.0f B vs store-major %.0f B (×%.1f)",
		lmDirty, smDirty, lmDirty/smDirty)
	return fig, pts, nil
}
