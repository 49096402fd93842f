package strategy

import (
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// SenseCommit wraps another strategy with an input-freshness protocol:
// a full checkpoint is committed immediately after every SENSE, so each
// captured input value is durably bound to forward progress before the
// program can act on it. Without this, a power failure between a SENSE
// and the wrapped runtime's next commit rolls the program back past the
// observation and the re-execution re-reads the input — formally legal
// (the first capture was never committed) but it stretches the
// observation-to-commit latency the timeliness oracle measures, and
// under a stale restore the already-committed capture can be observed
// twice. SenseCommit bounds the committed-observation latency to the
// checkpoint cost itself and advertises the guarantee through
// InputsProtected, which the correctness oracle cross-checks.
//
// The wrapper only makes sense for SRAM-resident runtimes (the commit
// is a fullPayload snapshot); pair it with timer/hibernus-class inner
// strategies.
type SenseCommit struct {
	inner device.Strategy
}

// NewSenseCommit wraps inner with post-SENSE commits. The wrapper
// implements device.PreStepFilter exactly when inner does: it forwards
// Horizon, and a horizon without the filter would let the batched
// engine run through a PreStep of inner's that fires.
func NewSenseCommit(inner device.Strategy) device.Strategy {
	s := &SenseCommit{inner: inner}
	if f, ok := inner.(device.PreStepFilter); ok {
		return filteredSenseCommit{s, f}
	}
	return s
}

// filteredSenseCommit is SenseCommit over a strategy with a PreStep
// filter, which it forwards.
type filteredSenseCommit struct {
	*SenseCommit
	filter device.PreStepFilter
}

// AdmitStep implements device.PreStepFilter.
func (s filteredSenseCommit) AdmitStep(pc uint32, acc device.AccessPreview, exec uint64) bool {
	return s.filter.AdmitStep(pc, acc, exec)
}

// Name implements device.Strategy.
func (s *SenseCommit) Name() string { return s.inner.Name() + "+sense" }

// Attach implements device.Strategy.
func (s *SenseCommit) Attach(d *device.Device) { s.inner.Attach(d) }

// Boot implements device.Strategy.
func (s *SenseCommit) Boot(d *device.Device) *device.Payload { return s.inner.Boot(d) }

// PreStep implements device.Strategy.
func (s *SenseCommit) PreStep(d *device.Device, in isa.Instr, acc device.AccessPreview) *device.Payload {
	return s.inner.PreStep(d, in, acc)
}

// phaseCounter is implemented by wrapped strategies whose PostStep
// counts Step.Cycles in private state (Hibernus's comparator phase).
// skip counts cycles whose PostStep the wrapper answered itself.
type phaseCounter interface{ skip(cycles uint64) }

// senseCycles is the cost of the SENSE instruction itself.
var senseCycles = cpu.CyclesFor(isa.Instr{Op: isa.SYS, Imm: int32(isa.SysSense)}, false)

// PostStep commits after every SENSE and otherwise defers to the
// wrapped strategy.
func (s *SenseCommit) PostStep(d *device.Device, st cpu.Step) *device.Payload {
	if st.HasSys && st.Sys == isa.SysSense {
		// A batch that ends at the SENSE also carries the instructions
		// before it, whose PostSteps the per-step engine hands to the
		// wrapped strategy; they stay short of its horizon (the batch
		// did not end there), so only a private count needs them.
		if pc, ok := s.inner.(phaseCounter); ok {
			pc.skip(st.Cycles - senseCycles)
		}
		p := fullPayload(d)
		d.Trace(obsv.EvTrigger, uint64(obsv.TrigSense), uint64(p.Bytes()))
		return &p
	}
	return s.inner.PostStep(d, st)
}

// FinalPayload implements device.Strategy.
func (s *SenseCommit) FinalPayload(d *device.Device) device.Payload {
	return s.inner.FinalPayload(d)
}

// Horizon defers to the wrapped strategy; the extra SENSE trigger is a
// declared SYS site (ObservedSys), which the batching contract already
// honors inside any horizon. The wrapped strategy's PreStep filter
// comes along with it (NewSenseCommit).
func (s *SenseCommit) Horizon(d *device.Device) uint64 { return s.inner.Horizon(d) }

// ReplaySafe implements device.Strategy.
func (s *SenseCommit) ReplaySafe() bool { return s.inner.ReplaySafe() }

// Reset implements device.Strategy.
func (s *SenseCommit) Reset() { s.inner.Reset() }

// ObservedSys adds SysSense to the wrapped strategy's observed set so
// the batched engine delivers a PostStep at every SENSE. A wrapped
// strategy without SysObserver is treated as observing every SYS code,
// matching the engine's own conservative default.
func (s *SenseCommit) ObservedSys() isa.SysMask {
	if so, ok := s.inner.(device.SysObserver); ok {
		return so.ObservedSys() | isa.SysSense.Mask()
	}
	return isa.AllSys
}

// InputsProtected declares the committed-observation guarantee: every
// commit lands at most one instruction after the SENSE it captures, so
// no committed observation can be re-read by a later re-execution.
func (s *SenseCommit) InputsProtected() bool { return true }

var (
	_ device.Strategy       = (*SenseCommit)(nil)
	_ device.SysObserver    = (*SenseCommit)(nil)
	_ device.InputProtector = (*SenseCommit)(nil)
	_ device.PreStepFilter  = filteredSenseCommit{}
)
