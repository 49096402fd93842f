package device

import (
	"fmt"
	"math"

	"ehmodel/internal/cpu"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
)

// Fused settle path.
//
// The equivalence contract forces both engines to replay the exact
// per-instruction energy sequence — one capacitor draw and one square
// root per instruction, in program order — so settlement is a serial
// floating-point dependency chain whose latency (subtract, divide,
// square root, two multiplies: ~40 cycles on current x86) rivals the
// cost of interpreting the instruction itself. Run as two separate
// loops (interpret a batch, then settle its records) the two costs
// add. Run as one loop they overlap: the chain occupies only a
// handful of floating-point units, and an out-of-order core executes
// the next instruction's integer interpreter work — decode switch,
// register file, memory model — entirely in the shadow of the
// previous instruction's divide/sqrt latency. The fusion is
// instruction-level parallelism, not threads, so it works on a
// single-CPU host and adds no synchronization, no deferred state and
// no extra gating: after every instruction the device state is as
// current as the reference engine's.
//
// Two algebraic rewrites shorten the chain; both are bit-identical to
// the reference expressions, not approximations:
//
//   - v = sqrt(e2/hc) with hc = 0.5*c replaces sqrt(2*e2/c).
//     Halving and doubling are exact in binary floating point, so
//     both forms perform one correctly-rounded division of the same
//     real value 2·e2/c and yield the same bits.
//   - eBefore is carried across instructions instead of recomputed.
//     The reference evaluates 0.5*c*v*v twice per step with the same
//     operands (once for pendingE, once as the next step's eBefore);
//     one evaluation reused is the same bits by determinism of the
//     operations.
//
// Every batched run settles here: bench and harvested supplies, fault
// injection and observation recording alike. The harvest credit is
// Capacitor.Store inlined (same operands, same order, same clamp), and
// pendingE keeps the reference's eBefore + (H − hBefore) − eAfter
// association — the harvested delta is not always bit-equal to the
// amount absorbed, and on a bench supply the term is +0, which leaves
// those bits unchanged.
func (d *Device) fusedBatch(code []isa.Instr, budget uint64) (cpu.Batch, error) {
	var (
		b  cpu.Batch
		st cpu.Step

		m     = d.mem
		stop  = d.stopSys
		harv  = d.cfg.Harvester
		rec   = d.rec
		boot  = int32(len(d.result.Periods))
		hc    = 0.5 * d.cap.C
		vmax  = d.cap.VMax
		eMax  = hc * vmax * vmax // 0.5*c*VMax*VMax, the clamp's energy
		voff  = d.cfg.VOff
		cp    = d.cyclePeriod
		epc   = d.epc
		v     = d.cap.Voltage()
		eb    = hc * v * v // 0.5*c*v*v, carried instruction to instruction
		timeS = d.timeS
		pend  = d.pendingE
		hv    = d.period.HarvestedE
		fram  uint64
	)

	writeback := func() {
		d.cap.SetVoltage(v)
		d.timeS = timeS
		d.pendingE = pend
		d.period.HarvestedE = hv
		d.framWrites += fram
		d.cycles += b.Cycles
		d.sinceCommit += b.Cycles
		d.execSinceBkup += b.Cycles
	}

	for b.Cycles < budget && !d.core.Halted {
		if int(d.core.PC) >= len(code) {
			b.Stop = cpu.StopPCRange
			writeback()
			return b, nil
		}
		if err := d.core.StepInto(code, m, &st); err != nil {
			// The failing instruction mutated nothing; the settled
			// prefix leaves the device exactly where the reference
			// engine errors out.
			writeback()
			return b, err
		}
		if st.HasAccess && st.Access.Store && m.Region(st.Access.Addr) == mem.RegionFRAM {
			fram++
		}
		n := float64(st.Cycles)
		dt := n * cp
		eBefore, hBefore := eb, hv
		if harv != nil {
			if h := harv.EnergyOver(timeS, dt); h > 0 {
				if v = math.Sqrt((eb + h) / hc); v > vmax {
					v = vmax
					hv += math.Max(0, eMax-eb)
				} else {
					hv += h
				}
				eb = hc * v * v
			}
		}
		timeS += dt
		e2 := eb - n*epc[st.Class]
		if e2 <= 0 {
			d.framWrites += fram
			return b, errBatchOverrun()
		}
		v = math.Sqrt(e2 / hc)
		if v < voff {
			d.framWrites += fram
			return b, errBatchOverrun()
		}
		eNext := hc * v * v
		pend += eBefore + (hv - hBefore) - eNext
		eb = eNext
		// No power-cut check: batchBudget ends every batch cutGuard
		// cycles short of the next scheduled cut, and PowerCutDue has no
		// side effect while it returns false, so skipping it here leaves
		// the injector exactly where the reference engine's checks do.
		b.Cycles += st.Cycles
		b.Steps++
		b.HasSys, b.Sys = st.HasSys, st.Sys
		if rec != nil {
			at := d.cycles + b.Cycles
			if st.HasSys && st.Sys == isa.SysSense {
				rec.sense(d.core.SenseSeq-1, at, boot)
			} else if st.HasAccess && st.Access.Store && rec.wantsStore(st.Access.Addr) {
				rec.store(st.Access.Addr, at)
			}
		}
		if st.HasSys && (d.core.Halted || stop.Has(st.Sys)) {
			b.Stop = cpu.StopSys
			break
		}
	}
	writeback()
	return b, nil
}

// errBatchOverrun is the engine-bug report for a batch the budget
// should have protected dying mid-flight: the budget guarantees the
// supply survives every step (see batchBudget), so a mid-batch death
// would mean instructions executed that the reference engine never ran.
func errBatchOverrun() error {
	return fmt.Errorf("device: internal: batch overran its energy horizon")
}
