package experiments

import (
	"context"
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/core"
	"ehmodel/internal/device"
	"ehmodel/internal/energy"
	"ehmodel/internal/mem"
	"ehmodel/internal/strategy"
	"ehmodel/internal/sweep"
	"ehmodel/internal/workload"
)

// --- §VI-A: store-major locality ---

// StoreMajorPoint compares the cache simulator's measured backup traffic
// with the Eq. 13/14 analysis for one NVM bandwidth ratio.
type StoreMajorPoint struct {
	SigmaRatio    float64 // σ_B / σ_load
	MeasuredRatio float64 // load-major : store-major total overhead cycles
	ModelRatio    float64 // Eq. 13
	StoreWins     bool    // Eq. 14
}

// CaseStoreMajor runs the Listing 1 matrix transpose through the
// mixed-volatility cache model in load-major and store-major order,
// taking a backup every β_block/β_store stores, and compares the
// overhead-cycle ratio against Eqs. 13–14 across NVM write/read
// bandwidth ratios (including the 10×-slow-writes STT-RAM case).
func CaseStoreMajor() (*Figure, []StoreMajorPoint, error) {
	const (
		n         = 64
		wordBytes = 4
		blockSize = 32
	)
	// Simulate both orders once: traffic in bytes is
	// bandwidth-independent; cycle ratios then follow from σ.
	type traffic struct{ loadBytes, backupBytes int }
	run := func(storeMajor bool) (traffic, error) {
		c, err := mem.NewCache(blockSize, 64, 4)
		if err != nil {
			return traffic{}, err
		}
		var tr traffic
		stores := 0
		aBase, bBase := uint32(0), uint32(n*n*wordBytes)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var la, sa uint32
				if storeMajor {
					la = aBase + uint32((j*n+i)*wordBytes)
					sa = bBase + uint32((i*n+j)*wordBytes)
				} else {
					la = aBase + uint32((i*n+j)*wordBytes)
					sa = bBase + uint32((j*n+i)*wordBytes)
				}
				if hit, _ := c.Access(la, false); !hit {
					tr.loadBytes += blockSize
				}
				if _, wb := c.Access(sa, true); wb {
					tr.backupBytes += blockSize
				}
				if stores++; stores%(blockSize/wordBytes) == 0 {
					tr.backupBytes += c.FlushDirty() * blockSize
				}
			}
		}
		tr.backupBytes += c.FlushDirty() * blockSize
		return tr, nil
	}
	lm, err := run(false)
	if err != nil {
		return nil, nil, err
	}
	sm, err := run(true)
	if err != nil {
		return nil, nil, err
	}

	fig := &Figure{
		ID:     "case-storemajor",
		Title:  "Store-major vs load-major transpose on a mixed-volatility cache (§VI-A)",
		XLabel: "σ_B/σ_load",
		YLabel: "overhead ratio τ_lm/τ_sm",
		XLog:   true,
	}
	var pts []StoreMajorPoint
	measured := Series{Label: "cache simulation"}
	model := Series{Label: "Eq. 13"}
	for _, ratio := range []float64{0.1, 0.2, 0.5, 1, 2, 5, 10} {
		sigmaLoad := 1.0
		sigmaB := ratio * sigmaLoad
		cycles := func(t traffic) float64 {
			return float64(t.loadBytes)/sigmaLoad + float64(t.backupBytes)/sigmaB
		}
		measuredRatio := cycles(lm) / cycles(sm)

		// Eq. 13 with parameters matching the simulated kernel: equal
		// read/write footprints, 4-byte accesses, 32-byte blocks.
		base := core.DefaultParams()
		base.SigmaB = sigmaB
		base.AlphaB = 0.5
		lp := core.LocalityParams{
			Model:     base,
			AlphaLoad: 0.5,
			SigmaLoad: sigmaLoad,
			BetaBlock: blockSize,
			BetaLoad:  wordBytes,
			BetaStore: wordBytes,
		}
		pt := StoreMajorPoint{
			SigmaRatio:    ratio,
			MeasuredRatio: measuredRatio,
			ModelRatio:    lp.OverheadRatio(),
			StoreWins:     lp.StoreMajorWins(),
		}
		pts = append(pts, pt)
		measured.Points = append(measured.Points, Point{X: ratio, Y: pt.MeasuredRatio})
		model.Points = append(model.Points, Point{X: ratio, Y: pt.ModelRatio})
	}
	fig.Series = append(fig.Series, measured, model)
	fig.AddNote("equal footprints and σ_B = σ_load give ratio ≈ 1 (no winner), as §VI-A derives")
	fig.AddNote("σ_B = σ_load/10 (STT-RAM-like writes) puts store-major ahead")
	return fig, pts, nil
}

// --- §VI-B: circular buffers for idempotency ---

// The fixed setup of the circular-buffer sweep.
const (
	circularArrayN       = 32    // logical array size n
	circularIters        = 60    // outer passes
	circularPeriodCycles = 40000 // supply size, in ALU cycles of energy
)

// CircularPoint is one buffer size's measured behaviour.
type CircularPoint struct {
	BufN         int
	PredictedTau float64 // (N − n + 1)·τ_store
	MeasuredTau  float64
	Progress     float64
}

// CaseCircularBuffer sweeps the Listing 2 circular-buffer size on a
// Clank machine with large tracking buffers (isolating
// idempotency-violation control from buffer-capacity effects), checking
// that τ_B follows (N−n+1)·τ_store and that progress peaks near the
// Eq. 15 plan. One cell per buffer size, swept around the plan,
// through the memoizing executor.
func CaseCircularBuffer(ctx context.Context) (*Figure, []CircularPoint, core.CircularBufferPlan, error) {
	pm := energy.CortexM0Power()
	e := circularPeriodCycles * pm.EnergyPerCycle(energy.ClassALU)

	// model parameters of this Clank machine for Eq. 9
	arch := core.Params{
		E:       e / pm.EnergyPerCycle(energy.ClassALU), // in cycles of ε
		Epsilon: 1,
		TauB:    1,
		SigmaB:  2,
		OmegaB:  pm.EnergyPerCycle(energy.ClassMem) / 2 / pm.EnergyPerCycle(energy.ClassALU),
		AB:      80,
		AlphaB:  0,
		SigmaR:  2,
		OmegaR:  pm.EnergyPerCycle(energy.ClassMem) / 2 / pm.EnergyPerCycle(energy.ClassALU),
		AR:      80,
		AlphaR:  0,
	}
	tauOpt := arch.TauBOpt()
	plan, err := core.OptimalCircularBuffer(circularArrayN, workload.CircularBufferStoreCycles(), tauOpt, 0)
	if err != nil {
		return nil, nil, plan, err
	}
	n := circularArrayN
	span := plan.N - n
	bufNs := []int{
		n, n + span/8, n + span/4, n + span/2, n + 3*span/4,
		plan.N, n + span*3/2, n + span*3,
	}

	fig := &Figure{
		ID:     "case-circular",
		Title:  "Circular-buffer sizing for idempotency on Clank (§VI-B)",
		XLabel: "buffer size N",
		YLabel: "progress p / τ_B (cycles)",
	}
	tauPred := Series{Label: "τ_B predicted (N−n+1)·τ_store"}
	tauMeas := Series{Label: "τ_B measured"}
	prog := Series{Label: "measured progress"}
	var cells []sweep.Cell
	for _, bufN := range bufNs {
		bufN := bufN
		cells = append(cells, sweep.Cell{
			Label: fmt.Sprintf("circular N=%d", bufN),
			Build: func(ctx context.Context) (device.Config, device.Strategy, error) {
				p, err := workload.CircularBuffer(circularArrayN, bufN, circularIters, asm.FRAM)
				if err != nil {
					return device.Config{}, nil, err
				}
				cl := strategy.NewClank()
				cl.ReadFirstEntries = 4096 // isolate violation-driven backups
				cl.WriteFirstEntries = 4096
				cl.WatchdogCycles = 1 << 40
				return fixedConfig(p, pm, circularPeriodCycles, 100000), cl, nil
			},
			Verify: func(res *device.Result) error {
				if !res.Completed {
					return fmt.Errorf("experiments: circular N=%d did not complete", bufN)
				}
				return nil
			},
		})
	}
	all, errs := sweep.Run(ctx, cells)
	if len(errs) > 0 {
		return nil, nil, plan, errs[0].Err
	}
	var pts []CircularPoint
	for i, bufN := range bufNs {
		res := all[i].Result
		pt := CircularPoint{
			BufN:         bufN,
			PredictedTau: core.StoresBetweenViolations(bufN, circularArrayN, 0) * workload.CircularBufferStoreCycles(),
			MeasuredTau:  res.MeanTauB(),
			Progress:     res.MeasuredProgress(),
		}
		pts = append(pts, pt)
		tauPred.Points = append(tauPred.Points, Point{X: float64(bufN), Y: pt.PredictedTau})
		tauMeas.Points = append(tauMeas.Points, Point{X: float64(bufN), Y: pt.MeasuredTau})
		prog.Points = append(prog.Points, Point{X: float64(bufN), Y: pt.Progress})
	}
	fig.Series = append(fig.Series, tauPred, tauMeas, prog)
	fig.AddNote("Eq. 9 τ_B,opt = %.0f cycles → Eq. 15 plan N_opt = %d (pow2 %d)", tauOpt, plan.N, plan.NPow2)
	best := pts[0]
	for _, pt := range pts {
		if pt.Progress > best.Progress {
			best = pt
		}
	}
	fig.AddNote("measured best N = %d (p = %.4f)", best.BufN, best.Progress)
	return fig, pts, plan, nil
}

// --- §VI-C: reduced bit-precision ---

// CaseBitPrecision evaluates the Fig. 11 analysis at a configuration
// with a large register file (the paper's headline example): reducing
// application-state precision by one bit at τ_B,bit.
type BitPrecisionResult struct {
	TauBBit    float64
	GainOneBit float64 // Δp for a 1-bit (12.5%) α_B reduction at τ_B,bit
	GainAtOpt  float64 // Δp for the same cut at τ_B,opt instead
}

// CaseBitPrecision quantifies where reduced-precision backups pay off,
// on DefaultFig11Base.
func CaseBitPrecision() BitPrecisionResult {
	base := DefaultFig11Base()
	bit := base.TauBBit()
	opt := base.TauBOpt()
	return BitPrecisionResult{
		TauBBit:    bit,
		GainOneBit: deltaPForBitCut(base.WithTauB(bit)),
		GainAtOpt:  deltaPForBitCut(base.WithTauB(opt)),
	}
}
