package device

import (
	"errors"
	"fmt"
	"time"

	"ehmodel/internal/cpu"
	"ehmodel/internal/energy"
	"ehmodel/internal/isa"
	"ehmodel/internal/mem"
	"ehmodel/internal/obsv"
)

// maxChargeS bounds how long the simulator will wait for the harvester
// to refill the capacitor before declaring the source dead.
const maxChargeS = 3600.0

// ErrNoProgress is the sentinel a Run error matches (errors.Is) when the
// harvested supply cannot recharge the capacitor to the restore
// threshold, so the device can never execute again.
var ErrNoProgress = errors.New("device: no forward progress")

// NoProgressError reports a run terminated because the device can never
// commit again: the supply stalled below the power-on threshold, or —
// with Config.DetectLivelock — the fixed-point test found a period that
// committed nothing and stored nothing to FRAM followed by its exact
// repeat (a livelock). It wraps ErrNoProgress for errors.Is and carries
// the period count reached before the stall.
type NoProgressError struct {
	// Periods is the number of active periods completed before the
	// supply stalled.
	Periods int
	// StuckV is the capacitor voltage the charge phase plateaued at;
	// TargetV is the VOn it needed to reach. Zero for livelocks (the
	// bench supply always recharges; the region is what never fits).
	StuckV, TargetV float64
	// PC is the program counter at the most recent brown-out and
	// SinceCommit the cycles executed since the last committed backup
	// at that moment. RegionEntry is the PC the dying period booted at
	// — the atomic-region naming ("entry=N") the static WCEC verifier's
	// livelock verdicts use, so dynamic and static reports line up.
	PC          uint32
	SinceCommit uint64
	RegionEntry uint32
	// Livelock marks the fixed-point diagnosis: a full charge committed
	// nothing, left no nonvolatile side effects and was repeated exactly
	// by the next, so every future period repeats it forever. Periods
	// counts the repeat; PC and SinceCommit are its death point.
	Livelock bool
}

func (e *NoProgressError) Error() string {
	if e.Livelock {
		return fmt.Sprintf("device: no forward progress after %d periods: livelock in region entry=%d — every full charge dies at PC %d with %d cycles since last commit",
			e.Periods, e.RegionEntry, e.PC, e.SinceCommit)
	}
	s := fmt.Sprintf("device: no forward progress after %d periods: harvester cannot reach VOn=%g within %gs (stuck at %gV)",
		e.Periods, e.TargetV, maxChargeS, e.StuckV)
	if e.Periods > 0 {
		s += fmt.Sprintf("; last brown-out in region entry=%d at PC %d, %d cycles since last commit",
			e.RegionEntry, e.PC, e.SinceCommit)
	}
	return s
}

// Is reports ErrNoProgress as the sentinel this error wraps.
func (e *NoProgressError) Is(target error) bool { return target == ErrNoProgress }

// ErrDeadlineExceeded is the sentinel a Run error matches (errors.Is)
// when the run blew its Config.RunTimeout wall-clock budget.
var ErrDeadlineExceeded = errors.New("device: run deadline exceeded")

// DeadlineError reports a run aborted by the coarse cycle-batch
// deadline check. It wraps ErrDeadlineExceeded for errors.Is and
// records how far the simulation got, so a sweep's failure report can
// distinguish a near miss from a wedged run.
type DeadlineError struct {
	// Timeout is the configured wall-clock budget.
	Timeout time.Duration
	// Cycles and Periods are the simulation position at expiry.
	Cycles  uint64
	Periods int
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("device: run exceeded its %v deadline (at %d cycles, %d periods)",
		e.Timeout, e.Cycles, e.Periods)
}

// Is reports ErrDeadlineExceeded as the sentinel this error wraps.
func (e *DeadlineError) Is(target error) bool { return target == ErrDeadlineExceeded }

// ProgramError reports a program whose control flow left the code: the
// PC fell (or branched) past the last instruction without halting. It
// is a program bug, not a power event — the runner's failure summary
// classifies it separately from deadlines and panics so a sweep report
// points at the workload rather than the harness.
type ProgramError struct {
	// PC is the out-of-range program counter; Program names the
	// offending workload build.
	PC      uint32
	Program string
}

func (e *ProgramError) Error() string {
	return fmt.Sprintf("device: PC %d ran off the end of %q", e.PC, e.Program)
}

// Interrupt/deadline poll pacing. pollInterrupt only runs the real
// check (wall clock + context hook) once per pollBatchCycles credited
// work units; the pollCredit* constants are how much work each loop
// credits per iteration. Together they set the deadline resolution:
// a loop crediting n units per iteration discovers an expired deadline
// at worst ⌈pollBatchCycles/n⌉ iterations late. Larger credits mean
// coarser resolution but a cheaper loop — and since the charge phase's
// iterations integrate up to 50 ms of simulated time each (versus one
// instruction in the active phase, or a 64-cycle sleep chunk), each
// loop gets its own credit so the worst-case delay between real checks
// stays comparable across phases. None of this ever perturbs
// simulation state; coarse is the point — a deadline is a guard
// against wedged sweeps, not a precision timer.
const (
	// pollBatchCycles is the real-check period in credited work units.
	pollBatchCycles = 1 << 16
	// pollCreditPeriod is credited once per active period by Run, so
	// strategies thrashing through thousands of near-empty periods
	// still reach the check about every 64 periods.
	pollCreditPeriod = 1024
	// pollCreditCharge is credited per charge-phase integration step;
	// a dying source spins these ~200 µs-to-50 ms steps for up to an
	// hour of simulated time, hitting the check every 256 iterations.
	pollCreditCharge = 256
	// pollCreditIdle matches idleToDeath's burn chunk: the sleep loop
	// credits its own 64 consumed cycles, checking every 1024 chunks.
	pollCreditIdle = 64
)

// pollInterrupt credits n simulated work units and, once a batch has
// accumulated, runs the real check: the Interrupt hook first (context
// cancellation), then the RunTimeout deadline.
func (d *Device) pollInterrupt(n uint64) error {
	if d.cfg.Interrupt == nil && d.cfg.RunTimeout == 0 {
		return nil
	}
	if d.tape != nil {
		d.tape.addCredit(n)
	}
	d.sincePoll += n
	if d.sincePoll < pollBatchCycles {
		return nil
	}
	return d.pollCheck()
}

// pollCheck is pollInterrupt's real check, run once the credit counter
// has reached pollBatchCycles.
func (d *Device) pollCheck() error {
	// Carry the overshoot instead of zeroing: the k-th real check then
	// falls at the same cumulative credit count in every engine, which
	// is what makes the poll boundary below engine-independent.
	over := d.sincePoll - pollBatchCycles
	d.sincePoll = over
	if d.cfg.Interrupt != nil {
		if err := d.cfg.Interrupt(); err != nil {
			return err
		}
	}
	if d.cfg.RunTimeout > 0 && time.Since(d.runStart) > d.cfg.RunTimeout {
		// Report the poll boundary, not the caller's position: the
		// batched engine credits a whole batch at once, so d.cycles
		// alone would sit up to maxBatchCycles past the boundary the
		// reference engine reports. Backing the overshoot out lands
		// both engines on the identical cycle number (credits are the
		// same cumulative sequence in both; a lump never spans two
		// boundaries since maxBatchCycles < pollBatchCycles).
		boundary := d.cycles
		if over <= boundary {
			boundary -= over
		} else {
			boundary = 0
		}
		if d.obs != nil {
			d.emit(obsv.EvDeadline, boundary, 0, 0)
		}
		return &DeadlineError{
			Timeout: d.cfg.RunTimeout,
			Cycles:  boundary,
			Periods: len(d.result.Periods),
		}
	}
	return nil
}

// Run executes the program under the configured strategy until it halts
// and commits, or a run limit is reached. The returned Result is valid
// in both cases (Completed distinguishes them); errors indicate program
// or configuration bugs, not power failures — except the sweep-engine
// aborts: a RunTimeout expiry returns a *DeadlineError (errors.Is
// ErrDeadlineExceeded) and a firing Interrupt hook returns its error,
// and the no-progress diagnoses return a *NoProgressError.
//
// After every period Run applies the fixed-point test (fastforward.go):
// on a bench supply with no injector, a period that commits nothing and
// stores nothing to FRAM, followed by an exact repeat, repeats forever.
// DetectLivelock reports that as a livelock; otherwise, for a Memoryless
// strategy, the batched engine replays the repeat for every remaining
// period that fits the run limits instead of simulating it, with the
// same Result, events and interrupt polls bit for bit.
func (d *Device) Run() (*Result, error) {
	d.result = Result{Strategy: d.strat.Name(), Program: d.cfg.Prog.Name}
	d.runStart = time.Now()
	d.sincePoll = 0
	if err := d.mem.WriteFRAMImage(d.cfg.Prog.FRAMImage); err != nil {
		return nil, err
	}
	if d.inj != nil {
		d.inj.BeginRun()
	}
	if d.rec != nil {
		d.rec.reset()
	}
	if d.obs != nil {
		var eng uint64
		if d.Engine() == EngineBatched {
			eng = 1
		}
		d.emit(obsv.EvRunBegin, eng, 0, 0)
	}
	d.resetFixedPoint()
	for len(d.result.Periods) < d.cfg.MaxPeriods && d.cycles < d.cfg.MaxCycles && !d.halted {
		if d.ff.tape != nil {
			if err := d.fastForward(); err != nil {
				return nil, err
			}
			continue
		}
		d.watchPeriod()
		// Credit a nominal batch per period so strategies that thrash
		// through thousands of near-empty periods still hit the check.
		if err := d.pollInterrupt(pollCreditPeriod); err != nil {
			return nil, err
		}
		if err := d.chargePhase(); err != nil {
			return nil, err
		}
		d.beginPeriod()
		if d.obs != nil {
			d.emit(obsv.EvPowerOn, 0, 0, d.chargeS)
		}
		alive, err := d.boot()
		if err != nil {
			return nil, err
		}
		if alive {
			if err := d.activePhase(); err != nil {
				return nil, err
			}
		}
		d.endPeriod()
		if err := d.fixedPointTest(); err != nil {
			return nil, err
		}
	}
	d.result.Completed = d.halted
	d.result.Output = append([]uint32(nil), d.committedOut...)
	d.result.TotalCycles = d.cycles
	d.result.TimeS = d.timeS
	if d.obs != nil {
		var done uint64
		if d.result.Completed {
			done = 1
		}
		d.emit(obsv.EvRunEnd, done, 0, 0)
	}
	return &d.result, nil
}

// chargePhase refills the capacitor to VOn. With no harvester the bench
// supply recharges instantly.
func (d *Device) chargePhase() error {
	start := d.timeS
	if d.cfg.Harvester == nil {
		d.cap.SetVoltage(d.cfg.VOn)
		d.chargeS = 0
		return nil
	}
	// Adaptive integration: step fine enough to resolve trace features
	// near the target, coarse when the source is nearly dead (spike
	// traces spend most of their time at microwatts).
	for d.cap.Voltage() < d.cfg.VOn {
		// The charge loop can spin for up to maxChargeS of simulated
		// time on a dying source; poll so a deadline can cut it short.
		if err := d.pollInterrupt(pollCreditCharge); err != nil {
			return err
		}
		need := d.cap.UsableEnergy(d.cfg.VOn, d.cap.Voltage())
		p := d.cfg.Harvester.PowerAt(d.timeS)
		chunk := 1e-4
		if p > 0 {
			if est := need / p / 20; est > chunk {
				chunk = est
			}
		} else {
			chunk = 5e-3
		}
		if chunk > 0.05 {
			chunk = 0.05
		}
		d.cap.Store(d.cfg.Harvester.EnergyOver(d.timeS, chunk))
		d.timeS += chunk
		if d.timeS-start > maxChargeS {
			return &NoProgressError{
				Periods:     len(d.result.Periods),
				StuckV:      d.cap.Voltage(),
				TargetV:     d.cfg.VOn,
				PC:          d.deathPC,
				SinceCommit: d.deathSince,
				RegionEntry: d.bootPC,
			}
		}
	}
	d.chargeS = d.timeS - start
	return nil
}

func (d *Device) beginPeriod() {
	d.period = PeriodStats{
		SupplyE:     d.cap.UsableEnergy(d.cap.Voltage(), d.cfg.VOff),
		ChargeTimeS: d.chargeS,
	}
	d.sinceCommit = 0
	d.pendingE = 0
	d.execSinceBkup = 0
}

// endPeriod converts uncommitted execution into dead cycles and archives
// the period.
func (d *Device) endPeriod() {
	if !d.halted {
		// Capture where the period died and how much work it loses, for
		// the NoProgressError report.
		d.deathPC = d.core.PC
		d.deathSince = d.sinceCommit
	}
	if d.obs != nil {
		if d.halted {
			d.emit(obsv.EvHalt, 0, 0, 0)
		} else {
			active := d.period.ProgressCycles + d.period.BackupCycles +
				d.period.RestoreCycles + d.period.IdleCycles +
				d.period.DeadCycles + d.sinceCommit
			d.emit(obsv.EvBrownOut, d.sinceCommit, active, 0)
		}
	}
	if d.rec != nil && !d.halted {
		d.rec.powerFail()
	}
	d.period.DeadCycles += d.sinceCommit
	d.period.DeadE += d.pendingE
	d.sinceCommit = 0
	d.pendingE = 0
	d.result.Periods = append(d.result.Periods, d.period)
}

// boot powers the core up: restore the newest valid checkpoint from the
// two-slot area (falling back across slots on CRC failure), otherwise
// cold-start from the program image. It reports whether the device
// survived the restore cost.
func (d *Device) boot() (alive bool, err error) {
	d.core.Reset()
	d.mem.LoseVolatile()
	if d.cache != nil {
		d.cache.Invalidate()
	}
	d.strat.Reset()

	eBefore, hBefore := d.cap.Energy(), d.period.HarvestedE
	cycBefore := d.cycles
	restored, alive, err := d.restoreCheckpoint()
	d.period.RestoreCycles += d.cycles - cycBefore
	d.period.RestoreE += eBefore + (d.period.HarvestedE - hBefore) - d.cap.Energy()
	if err != nil {
		return false, err
	}
	if !alive {
		return false, nil // died restoring; retry next period
	}
	if !restored {
		*d.core = cpu.Core{}
		if err := d.mem.WriteSRAMImage(d.cfg.Prog.SRAMImage); err != nil {
			return false, err
		}
	}
	// The PC this period resumes at is the atomic-region entry the
	// NoProgressError report names, matching the static verifier.
	d.bootPC = d.core.PC

	if p := d.strat.Boot(d); p != nil {
		if !d.backup(*p) {
			return false, nil
		}
	}
	return true, nil
}

// previewAccess computes the memory access the instruction would make
// with the current register state.
func previewAccess(in isa.Instr, c *cpu.Core) AccessPreview {
	if !in.Op.IsLoad() && !in.Op.IsStore() {
		return AccessPreview{}
	}
	size := uint8(4)
	if in.Op == isa.LB || in.Op == isa.LBU || in.Op == isa.SB {
		size = 1
	}
	return AccessPreview{
		Valid: true,
		Addr:  c.Regs[in.Rs1] + uint32(in.Imm),
		Size:  size,
		Store: in.Op.IsStore(),
	}
}

// Batched-engine tuning. The batch budget is the distance to the
// nearest *event* — strategy trigger, possible brown-out, scheduled
// fault, run limit — so inside a batch nothing can observably happen
// and the engine may execute instructions back to back.
const (
	// maxBatchCycles caps one batch so a long event-free stretch still
	// settles accounting and polls the interrupt hook at a bounded
	// latency.
	maxBatchCycles = 1 << 14
	// cutGuard is slack between a batch's end and the next scheduled
	// power cut; it must exceed the instruction overshoot so the cut
	// always fires in per-step mode, on the exact instruction the
	// reference engine kills.
	cutGuard = 8
)

// activePhase executes instructions until power failure, completion, or
// a cycle budget stop. A nil error covers all three; errors are
// program/simulator bugs. The work happens in one of two engines that
// produce byte-identical results (see TestEngineEquivalence): the
// reference per-instruction loop, and the batched event-horizon loop.
// The cache model is inherently per-access, so cache configs always run
// the reference loop, as does a period the batched engine records for
// fast-forward (fastforward.go).
func (d *Device) activePhase() error {
	if d.Engine() == EngineReference || d.tape != nil {
		return d.activePhaseReference()
	}
	return d.activePhaseBatched()
}

// activePhaseReference is the original per-instruction loop, kept as
// the trust anchor the batched engine is proven against.
func (d *Device) activePhaseReference() error {
	code := d.cfg.Prog.Code
	for d.cycles < d.cfg.MaxCycles {
		if int(d.core.PC) >= len(code) {
			return &ProgramError{PC: d.core.PC, Program: d.cfg.Prog.Name}
		}
		done, err := d.stepOnce(code)
		if done || err != nil {
			return err
		}
	}
	return nil
}

// stepOnce runs the full per-instruction protocol for one instruction:
// PreStep, execute, settle accounting, halt handling, PostStep. It
// reports done when the active phase must end (power failure, halt,
// post-backup sleep) — with a nil error in all three cases.
func (d *Device) stepOnce(code []isa.Instr) (done bool, err error) {
	in := code[d.core.PC]

	// Pre-instruction backup (idempotency violations etc.).
	if p := d.strat.PreStep(d, in, previewAccess(in, d.core)); p != nil {
		if !d.backup(*p) {
			return true, nil // power failed during backup
		}
		if p.ThenSleep {
			return true, d.idleToDeath()
		}
	}

	// StepInto fills the report in place; Core.Step would return it by
	// value, copying every field stepInto has just written. Nothing
	// between the fetch above and here moves the PC, so in is the
	// instruction Step would have echoed.
	var st cpu.Step
	if err := d.core.StepInto(code, d.mem, &st); err != nil {
		return true, err
	}
	st.Instr = in
	if st.HasAccess && st.Access.Store && d.mem.Region(st.Access.Addr) == mem.RegionFRAM {
		d.framWrites++
	}
	cycles := st.Cycles
	if d.cache != nil && st.HasAccess {
		cycles += d.cachePenalty(st.Access)
	}
	eBefore, hBefore := d.cap.Energy(), d.period.HarvestedE
	alive := d.consume(cycles, st.Class)
	d.sinceCommit += cycles
	d.execSinceBkup += cycles
	d.pendingE += eBefore + (d.period.HarvestedE - hBefore) - d.cap.Energy()
	if d.rec != nil {
		if st.HasSys && st.Sys == isa.SysSense {
			d.rec.sense(d.core.SenseSeq-1, d.cycles, int32(len(d.result.Periods)))
		} else if st.HasAccess && st.Access.Store && d.rec.wantsStore(st.Access.Addr) {
			d.rec.store(st.Access.Addr, d.cycles)
		}
	}
	if err := d.pollInterrupt(cycles); err != nil {
		return true, err
	}
	if !alive {
		return true, nil // power failure: pending work becomes dead
	}

	if st.HasSys && st.Sys == isa.SysHalt {
		if d.backup(d.strat.FinalPayload(d)) {
			d.halted = true
		}
		return true, nil // committed → done; failed → retry next period
	}

	// Post-instruction backup (timers, checkpoint sites, task ends).
	if p := d.strat.PostStep(d, st); p != nil {
		if !d.backup(*p) {
			return true, nil
		}
		if p.ThenSleep {
			return true, d.idleToDeath()
		}
	}
	return false, nil
}

// activePhaseBatched is the event-horizon engine. Each iteration sizes
// a batch that provably contains no event — the strategy's declared
// horizon, the conservative brown-out horizon, the next scheduled fault
// and the run limits all lie at or beyond its end — executes it, then
// delivers the single synthesized PostStep the Horizon contract
// promises. Every batch runs in fusedBatch, which interleaves the
// per-step energy sequence — harvest credit included — and the
// recorder's hooks with interpretation (fused.go), reproducing the
// reference engine's floating-point sequence bit for bit on bench,
// harvested and fault-injected supplies alike. A zero budget — the
// strategy wants its PreStep, a brown-out is within reach, or a power
// cut is within cutGuard — falls back to stepOnce, so those events fire
// in exact per-step mode on the same instruction as the reference
// engine; every other event ends a batch exactly (see batchBudget). So
// does a PreStep that would fire (see PreStepFilter): the batch ends
// before that instruction, and when it is the batch's first, the
// instruction runs through stepOnce, where the real PreStep fires.
func (d *Device) activePhaseBatched() error {
	code := d.cfg.Prog.Code
	for d.cycles < d.cfg.MaxCycles {
		pc := d.core.PC
		if int(pc) >= len(code) {
			return &ProgramError{PC: pc, Program: d.cfg.Prog.Name}
		}
		budget := d.batchBudget()
		if budget == 0 || (d.filter != nil &&
			!d.filter.AdmitStep(pc, previewAccess(code[pc], d.core), d.execSinceBkup)) {
			done, err := d.stepOnce(code)
			if done || err != nil {
				return err
			}
			continue
		}
		if d.obs != nil {
			d.emit(obsv.EvBatchHorizon, budget, d.strat.Horizon(d), 0)
		}

		b, stepErr := d.fusedBatch(code, budget)
		if b.Steps > 0 {
			if err := d.pollInterrupt(b.Cycles); err != nil {
				return err
			}
		}
		if stepErr != nil {
			// The failing instruction mutated nothing (cpu.Step is
			// transactional), so the settled prefix leaves the device
			// exactly where the reference engine errors out.
			return stepErr
		}

		if d.core.Halted {
			if d.backup(d.strat.FinalPayload(d)) {
				d.halted = true
			}
			return nil
		}

		// One synthesized PostStep per batch (see Strategy.Horizon).
		if p := d.strat.PostStep(d, cpu.Step{Cycles: b.Cycles, Sys: b.Sys, HasSys: b.HasSys}); p != nil {
			if !d.backup(*p) {
				return nil
			}
			if p.ThenSleep {
				return d.idleToDeath()
			}
		}
	}
	return nil
}

// batchBudget returns how many cycles the engine may execute before the
// next possible event, or 0 when the next instruction must run the
// exact per-step protocol. Every bound is either exact or carries its
// own slack over the ≤ 7-cycle overshoot of a batch's final
// instruction, so any nonzero budget batches, however small:
//
//   - the strategy horizon is exact by the Horizon contract (the batch
//     ends on the instruction that crosses it); a horizon ≤ 1 opts out
//     of batching, because PreStep must run;
//   - CyclesAboveEnergy subtracts at least 64 cycles of slack; 0 means
//     a brown-out may be one instruction away;
//   - the MaxCycles bound is the reference loop's own condition;
//   - a scheduled cut stops the batch cutGuard short, and a cut within
//     cutGuard must fire in per-step mode.
func (d *Device) batchBudget() uint64 {
	// Strategy horizon first: it is cheap, and a per-step strategy
	// (Horizon 1) must not pay for the energy math below.
	budget := d.strat.Horizon(d)
	if budget <= 1 {
		return 0
	}
	// Conservative brown-out horizon: worst active class, no harvest
	// credit, slack for float drift — the supply cannot die inside it.
	if h := d.CyclesAboveEnergy(0); h < budget {
		budget = h
	}
	// Run limit: an instruction starts only while cycles < MaxCycles,
	// which is exactly the reference loop's per-step condition.
	if rem := d.cfg.MaxCycles - d.cycles; rem < budget {
		budget = rem
	}
	if budget > maxBatchCycles {
		budget = maxBatchCycles
	}
	// Scheduled supply faults: stop the batch short of the next cut so
	// the cut fires in per-step mode on the reference instruction.
	if d.inj != nil {
		if cut := d.inj.NextPowerCut(); cut != NoPowerCut {
			if cut <= d.cycles+cutGuard {
				return 0
			}
			if rem := cut - d.cycles - cutGuard; rem < budget {
				budget = rem
			}
		}
	}
	return budget
}

// cachePenalty simulates the access in the cache model and returns the
// stall cycles it adds: a block fill from FRAM on a miss, plus a
// writeback on a dirty eviction.
func (d *Device) cachePenalty(acc cpu.Access) uint64 {
	hit, writeback := d.cache.Access(acc.Addr, acc.Store)
	var extra uint64
	if !hit {
		extra += d.transferCycles(d.cache.BlockSize(), d.cfg.SigmaR)
	}
	if writeback {
		extra += d.transferCycles(d.cache.BlockSize(), d.cfg.SigmaB)
	}
	return extra
}

// backup writes a checkpoint with the given payload through the
// two-phase commit protocol (ckpt.go). It returns false if the supply
// died before the commit record landed; a torn or incomplete write
// leaves the previous checkpoint's slot intact, so a failed backup is
// recoverable by construction rather than by fiat.
func (d *Device) backup(p Payload) bool {
	if d.obs != nil {
		d.emit(obsv.EvCheckpointBegin, uint64(p.Bytes()), 0, 0)
	}
	eBefore, hBefore := d.cap.Energy(), d.period.HarvestedE
	cycBefore := d.cycles
	d.bkupStart = cycBefore
	ok := d.writeCheckpoint(p)
	bkE := eBefore + (d.period.HarvestedE - hBefore) - d.cap.Energy()
	d.period.BackupCycles += d.cycles - cycBefore
	d.period.BackupE += bkE
	if !ok {
		if d.obs != nil {
			d.emit(obsv.EvCheckpointFail, uint64(p.Bytes()), 0, bkE)
		}
		return false
	}

	if p.FlushCache && d.cache != nil {
		d.cache.FlushDirty()
	}

	// Uncommitted execution becomes forward progress.
	d.period.ProgressCycles += d.sinceCommit
	d.period.ProgressE += d.pendingE
	d.sinceCommit = 0
	d.pendingE = 0
	d.period.Backups++
	d.period.BackupIntervals = append(d.period.BackupIntervals, d.execSinceBkup)
	d.period.AppBytes = append(d.period.AppBytes, p.AppBytes)
	d.period.PayloadBytes = append(d.period.PayloadBytes, p.Bytes())
	if d.obs != nil {
		d.emit(obsv.EvCheckpointCommit, uint64(p.Bytes()), d.execSinceBkup, bkE)
	}
	d.execSinceBkup = 0
	return true
}

// idleToDeath burns idle cycles until the supply dies — the
// single-backup sleep after a Hibernus-style checkpoint. A harvester
// that sustains the idle draw would otherwise spin to MaxCycles, so
// the sleep polls the interrupt/deadline check too. The batched engine
// (as Engine reports it, so never a cache model) settles the chunks in
// fusedSleep (sleep.go), except under a fault injector or while
// recording a fixed point, which see every chunk.
func (d *Device) idleToDeath() error {
	if d.obs != nil {
		d.emit(obsv.EvSleep, 0, 0, 0)
	}
	if d.Engine() == EngineBatched && d.inj == nil && d.tape == nil {
		return d.fusedSleep()
	}
	const chunk = pollCreditIdle
	for d.cycles < d.cfg.MaxCycles {
		if err := d.pollInterrupt(chunk); err != nil {
			return err
		}
		eBefore, hBefore := d.cap.Energy(), d.period.HarvestedE
		alive := d.consume(chunk, energy.ClassIdle)
		d.period.IdleCycles += chunk
		d.period.IdleE += eBefore + (d.period.HarvestedE - hBefore) - d.cap.Energy()
		if !alive {
			return nil
		}
	}
	return nil
}
