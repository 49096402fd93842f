package strategy

import (
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// NVP models a nonvolatile processor (§II): all memory is nonvolatile
// and a small amount of architectural state is flushed to nonvolatile
// flip-flops either every cycle (multi-backup, the Ma et al. HPCA'15
// design) or once per period at a voltage threshold (single-backup).
//
// Workloads run under NVP must keep mutable data in FRAM.
type NVP struct {
	base
	// EveryCycle selects per-cycle flip-flop backup; otherwise the
	// processor backs up once when the stored energy nears the backup
	// cost (threshold mode).
	EveryCycle bool
	// ArchBytes is the state flushed per backup. Per-cycle designs with
	// dirty-tracking save only the PC and modified registers (default 8
	// bytes); threshold designs save the full register file.
	ArchBytes int
	// Margin is the threshold multiplier for single-backup mode.
	Margin float64

	armed bool
}

// NewNVPEveryCycle returns the per-cycle backup configuration.
func NewNVPEveryCycle() *NVP {
	return &NVP{EveryCycle: true, ArchBytes: 8, Margin: 2}
}

// NewNVPThreshold returns the single-backup configuration saving the
// full register file.
func NewNVPThreshold() *NVP {
	return &NVP{ArchBytes: cpu.ArchStateBytes, Margin: 2}
}

// Name implements device.Strategy.
func (n *NVP) Name() string {
	if n.EveryCycle {
		return "nvp-everycycle"
	}
	return "nvp-threshold"
}

// Boot arms the threshold comparator. The every-cycle design announces
// its per-cycle flush mode here, once per power-on — a per-instruction
// event stream would swamp every sink.
func (n *NVP) Boot(d *device.Device) *device.Payload {
	n.armed = true
	if n.EveryCycle {
		d.Trace(obsv.EvTrigger, uint64(obsv.TrigEveryCycle), 0)
	}
	if d.HasCheckpoint() {
		return nil
	}
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigBoot), 0)
	p := device.Payload{ArchBytes: n.ArchBytes}
	return &p
}

// Reset loses the comparator arm state.
func (n *NVP) Reset() { n.armed = false }

// PostStep backs up per the configured mode.
func (n *NVP) PostStep(d *device.Device, _ cpu.Step) *device.Payload {
	if n.EveryCycle {
		return &device.Payload{ArchBytes: n.ArchBytes}
	}
	if !n.armed {
		return nil
	}
	// As in Hibernus, the heap payload is built only when the sample
	// fires.
	if d.StoredEnergy() > n.Margin*d.BackupCost(device.Payload{ArchBytes: n.ArchBytes}) {
		return nil
	}
	n.armed = false
	p := device.Payload{ArchBytes: n.ArchBytes, ThenSleep: true}
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigThreshold), uint64(p.Bytes()))
	return &p
}

// Horizon distinguishes the two designs. The every-cycle processor
// backs up after literally every instruction, so it opts out of
// batching. The threshold design uses the device's conservative
// brown-out-style bound: the stored energy cannot reach the trigger
// threshold within the returned cycle count (worst active class, no
// harvest credit), so the comparator — which the per-step engine polls
// every instruction — provably stays quiet for the whole batch. The
// bound carries its own slack, so even short horizons near the trigger
// are batched; only once it rounds down to one cycle or none does the
// comparator run per-step.
func (n *NVP) Horizon(d *device.Device) uint64 {
	if n.EveryCycle {
		return 1
	}
	if !n.armed {
		return device.HorizonInfinite
	}
	p := device.Payload{ArchBytes: n.ArchBytes}
	return d.CyclesAboveEnergy(n.Margin * d.BackupCost(p))
}

// ObservedSys reports that the comparator ignores SYS codes.
func (n *NVP) ObservedSys() isa.SysMask { return 0 }

// FinalPayload commits the final architectural state.
func (n *NVP) FinalPayload(*device.Device) device.Payload {
	return device.Payload{ArchBytes: n.ArchBytes}
}

// ReplaySafe distinguishes the two NVP designs: the every-cycle
// processor's replay window is a single instruction whose inputs the
// checkpoint restores, so re-execution is idempotent; the threshold
// design checkpoints just-in-time on a voltage warning and guarantees
// nothing about stores it has not yet saved — an unwarned reset (or a
// torn threshold backup) after nonvolatile stores is unrecoverable.
func (n *NVP) ReplaySafe() bool { return n.EveryCycle }

var _ device.Strategy = (*NVP)(nil)
