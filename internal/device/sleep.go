package device

import (
	"math"

	"ehmodel/internal/energy"
	"ehmodel/internal/trace"
)

// Fused sleep.
//
// A single-backup runtime (Hibernus) checkpoints near brown-out and
// then sleeps until the supply dies; on a harvested supply that sleep
// is most of the simulated cycles. idleToDeath burns it in 64-cycle
// chunks through consume, Capacitor.Store and Capacitor.Draw. The
// batched engine runs the same chunks here instead, with the voltage
// and its energy ½C·v², simulated time, harvested and idle energy, the
// cycle counters and the poll credit held in locals. Each chunk is
// consume's: the capacitor's settle step (energy.Settle), its credit
// and then its draw, and the death test survives.
//
// The clamped chunk. On a strong supply the harvest clamps the
// capacitor at VMax, and the draw then takes one chunk's idle energy j
// from the full ½C·VMax², so every chunk that clamps ends at the same
// voltage v*: the draw of j from a full capacitor. A chunk that starts
// at exactly v* (bit for bit) and clamps therefore repeats a
// loop-invariant update: it ends at v*, both energies it reads, before
// and after, are E(v*), and it absorbs what the credit of any clamping
// harvest absorbs at v*, max(0, ½C·VMax² − E(v*)). Those values are
// the step's own results, computed once, and the chunk skips the
// credit and the draw. The credit's clamp test is monotone in the
// harvest h, so it is h ≥ h* for the least clamping h*, found once per
// sleep (clampThreshold): the chunk's only remaining work is the trace
// lookup. Time, HarvestedE, IdleE and the cycle counters still advance
// per chunk with the reference's expressions: a running sum is not a
// multiple. v* is taken only when the device survives it; otherwise it
// is NaN, which no voltage equals, and every chunk takes the general
// path. A NaN harvest fails h ≥ h* and settles on the general path, as
// Store settles it.
//
// Each real interrupt poll writes the locals back before pollCheck, so
// a deadline reports the boundary cycle, time and period the reference
// engine reports. Sleeps that must see every chunk keep idleToDeath's
// consume loop: a fault injector checks PowerCutDue per chunk, and a
// fixed-point recording logs every chunk's dt (fastforward.go). The
// reference engine always does, so the equivalence oracle checks every
// sleep fused here against consume.

// sleepChunks counts the chunks fusedSleep settled on each path. It is
// not part of Result: tests read it to see that the clamped path runs.
type sleepChunks struct {
	clamped, general uint64
}

// fusedSleep is idleToDeath on the batched engine: 64-cycle idle chunks
// until the supply dies or the run reaches MaxCycles.
func (d *Device) fusedSleep() error {
	const n = pollCreditIdle
	var (
		law  = d.cap.Settle()
		voff = d.cfg.VOff
		maxC = d.cfg.MaxCycles
		dt   = float64(n) * d.cyclePeriod
		half = dt / 2
		j    = float64(n) * d.epc[energy.ClassIdle]
		poll = d.cfg.Interrupt != nil || d.cfg.RunTimeout != 0
		harv = d.cfg.Harvester
		src  *trace.Trace
		per  float64
		eta  float64
		r    float64

		// The clamped chunk's v*, E(v*), h* and absorption.
		vStar, eStar   = math.NaN(), math.NaN()
		hStar, absStar = math.NaN(), math.NaN()

		v     = d.cap.Voltage()
		e     = law.Energy(v)
		timeS = d.timeS
		cyc   = d.cycles
		since = d.sincePoll
		hv    = d.period.HarvestedE
		idleE = d.period.IdleE
		idleC = d.period.IdleCycles
		paths = d.sleep
	)
	if harv != nil {
		src, per, eta, r = harv.Source, harv.Source.PeriodS, harv.Eta, harv.R
		if vs, es, ok := law.Draw(law.VMax, law.Energy(law.VMax), j); survives(ok, vs, voff) {
			vStar, eStar = vs, es
			hStar = clampThreshold(law, vStar, eStar)
			_, _, absStar, _ = law.Credit(vStar, eStar, hStar)
		}
	}

	writeback := func() {
		d.cap.SetVoltage(v)
		d.timeS = timeS
		d.cycles = cyc
		d.sincePoll = since
		d.period.HarvestedE = hv
		d.period.IdleE = idleE
		d.period.IdleCycles = idleC
		d.sleep = paths
	}
	for cyc < maxC {
		// pollInterrupt's credit, with its real check on the written-back
		// device.
		if poll {
			if since += n; since >= pollBatchCycles {
				writeback()
				if err := d.pollCheck(); err != nil {
					return err
				}
				since = d.sincePoll
			}
		}
		eBefore, hBefore := e, hv
		if harv != nil {
			// Harvester.EnergyOver(timeS, dt), its lookup inlined.
			ts := timeS + half
			vs, ok := trace.Interp(src.SamplesV, ts/per)
			if !ok {
				vs = src.VoltageAt(ts)
			}
			h := energy.TransducerPower(vs, eta, r) * dt
			if v == vStar && h >= hStar {
				hv += absStar
				timeS += dt
				cyc += n
				idleC += n
				idleE += eStar + (hv - hBefore) - eStar
				paths.clamped++
				continue
			}
			var absorbed float64
			v, e, absorbed, _ = law.Credit(v, e, h)
			hv += absorbed
		}
		timeS += dt
		cyc += n
		var ok bool
		v, e, ok = law.Draw(v, e, j)
		idleC += n
		idleE += eBefore + (hv - hBefore) - e
		paths.general++
		if !survives(ok, v, voff) {
			break
		}
	}
	writeback()
	return nil
}

// clampThreshold returns the least harvest h > 0 whose credit clamps a
// capacitor at vStar holding eStar, or NaN when none does. The credit's
// clamp test is monotone in h, so h ≥ the threshold is the test itself,
// bit for bit; positive float64s order like their bit patterns, so
// bisecting those finds it in at most 64 evaluations.
func clampThreshold(law energy.Settle, vStar, eStar float64) float64 {
	clamps := func(h float64) bool {
		_, _, _, clamped := law.Credit(vStar, eStar, h)
		return clamped
	}
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // +0 is not a harvest
	if !clamps(math.Inf(1)) {
		return math.NaN()
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if clamps(math.Float64frombits(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}
