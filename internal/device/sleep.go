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
// batched engine runs the same chunks here instead, with the voltage,
// simulated time, harvested and idle energy, the cycle counters and the
// poll credit held in locals, and performs those three functions'
// floating-point operations in the same order and expression shape, so
// every bit matches: 2·e/C divides the doubled energy by C as Store and
// Draw do, and ½C·v² is one hoisted ½C times v times v, the order
// Capacitor.Energy multiplies in.
//
// The clamped chunk. On a strong supply the harvest clamps the
// capacitor at VMax, and Draw then takes one chunk's idle energy j from
// the full ½C·VMax², so every chunk that clamps ends at the same
// voltage v* = √(2(½C·VMax² − j)/C). A chunk that starts at exactly v*
// (bit for bit) and clamps therefore repeats a loop-invariant update:
// it ends at v*, absorbs max(0, ½C·VMax² − E(v*)) — Store's clamp
// expression with E(v*) in place of the stored energy — and both
// energies it reads, before and after, are E(v*). Those values are
// computed once, from the expressions the general path evaluates, and
// the chunk skips the clamp arithmetic and Draw's division and square
// root. Store's clamp test, √(2(E(v*)+h)/C) > VMax, is monotone in the
// harvest h, so it is h ≥ h* for the least clamping h*, found once per
// sleep (clampThreshold): the chunk's only remaining work is the trace
// lookup. Time, HarvestedE, IdleE and the cycle counters still advance
// per chunk with the reference's expressions: a running sum is not a
// multiple. v* exists when 0 < j < ½C·VMax² and is taken only when the
// device survives it (v* ≥ VOff); otherwise it is NaN, which no voltage
// equals, and every chunk takes the general path. A NaN harvest fails
// h ≥ h* and settles on the general path, as Store settles it.
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
		c     = d.cap.C
		hc    = 0.5 * c
		vmax  = d.cap.VMax
		eMax  = hc * vmax * vmax
		voff  = d.cfg.VOff
		maxC  = d.cfg.MaxCycles
		dt    = float64(n) * d.cyclePeriod
		half  = dt / 2
		j     = float64(n) * d.epc[energy.ClassIdle]
		poll  = d.cfg.Interrupt != nil || d.cfg.RunTimeout != 0
		harv  = d.cfg.Harvester
		src   *trace.Trace
		per   float64
		eta   float64
		r     float64
		vStar = math.NaN()

		v     = d.cap.Voltage()
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
		if 0 < j && j < eMax {
			if s := math.Sqrt(2 * (eMax - j) / c); s >= voff {
				vStar = s
			}
		}
	}
	eStar := hc * vStar * vStar
	absStar := math.Max(0, eMax-eStar)
	hStar := clampThreshold(eStar, c, vmax)

	settle := func() {
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
				settle()
				if err := d.pollCheck(); err != nil {
					return err
				}
				since = d.sincePoll
			}
		}
		hBefore := hv
		var h float64
		if harv != nil {
			// Harvester.EnergyOver(timeS, dt), its lookup inlined.
			ts := timeS + half
			vs, ok := trace.Interp(src.SamplesV, ts/per)
			if !ok {
				vs = src.VoltageAt(ts)
			}
			h = energy.TransducerPower(vs, eta, r) * dt
			if v == vStar && h >= hStar {
				hv += absStar
				timeS += dt
				cyc += n
				idleC += n
				idleE += eStar + (hv - hBefore) - eStar
				paths.clamped++
				continue
			}
		}
		eb := hc * v * v
		if harv != nil {
			// Capacitor.Store(h).
			var absorbed float64
			if !(h <= 0) {
				if vNew := math.Sqrt(2 * (eb + h) / c); vNew > vmax {
					absorbed = math.Max(0, eMax-eb)
					v = vmax
				} else {
					absorbed = h
					v = vNew
				}
			}
			hv += absorbed
		}
		timeS += dt
		cyc += n
		// Capacitor.Draw(j).
		ok := true
		if j > 0 {
			if e := hc*v*v - j; e <= 0 {
				v, ok = 0, false
			} else {
				v = math.Sqrt(2 * e / c)
			}
		}
		idleC += n
		idleE += eb + (hv - hBefore) - hc*v*v
		paths.general++
		if !ok || !(v >= voff) {
			break
		}
	}
	settle()
	return nil
}

// clampThreshold returns the least harvest h > 0 whose Capacitor.Store
// clamps a capacitor holding eStar: the least h with
// √(2(eStar+h)/C) > VMax, or NaN when none does. Every step of that
// test is monotone in h, so h ≥ the threshold is the test itself, bit
// for bit; positive float64s order like their bit patterns, so
// bisecting those finds it in at most 64 evaluations.
func clampThreshold(eStar, c, vmax float64) float64 {
	clamps := func(h float64) bool { return math.Sqrt(2*(eStar+h)/c) > vmax }
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
