package strategy

import (
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// Ratchet models the compiler-only system of Van Der Woude & Hicks
// (§II): the compiler decomposes the program into idempotent sections
// and inserts a register checkpoint before every write-after-read
// memory dependence, with a section-length cap so re-execution stays
// bounded. Unlike Clank there is no tracking hardware — the compiler's
// static analysis is conservative but unbounded, which the simulator
// realizes as unbounded dynamic read/write sets (a static analysis
// would checkpoint at least this often).
//
// Workloads run under Ratchet must keep mutable data in FRAM.
type Ratchet struct {
	base
	// MaxRegion caps idempotent-section length in executed cycles
	// (default 4000).
	MaxRegion uint64
	// ArchBytes is the register-checkpoint size (default
	// cpu.ArchStateBytes).
	ArchBytes int

	readFirst  map[uint32]struct{}
	writeFirst map[uint32]struct{}
	violations uint64
}

// NewRatchet returns a Ratchet strategy with defaults.
func NewRatchet() *Ratchet {
	r := &Ratchet{MaxRegion: 4000, ArchBytes: cpu.ArchStateBytes}
	r.Reset()
	return r
}

// Name implements device.Strategy.
func (r *Ratchet) Name() string { return "ratchet" }

// Violations counts WAR-driven checkpoints across the run.
func (r *Ratchet) Violations() uint64 { return r.violations }

// Reset drops the section's access sets. It runs at every boot and
// checkpoint, so it empties the maps in place and keeps their storage.
func (r *Ratchet) Reset() {
	clearSet(&r.readFirst)
	clearSet(&r.writeFirst)
}

func (r *Ratchet) payload() device.Payload {
	return device.Payload{ArchBytes: r.ArchBytes}
}

// Boot checkpoints once on a cold start so re-execution is anchored.
func (r *Ratchet) Boot(d *device.Device) *device.Payload {
	if d.HasCheckpoint() {
		return nil
	}
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigBoot), 0)
	p := r.payload()
	return &p
}

// PreStep cuts the section before a write-after-read commits.
func (r *Ratchet) PreStep(d *device.Device, _ isa.Instr, acc device.AccessPreview) *device.Payload {
	if r.admit(acc) {
		return nil
	}
	// Checkpoint, then track the store as write-first in the fresh
	// section.
	word := acc.Addr &^ 3
	r.violations++
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigWAR), uint64(word))
	d.Trace(obsv.EvWARFlush, uint64(len(r.readFirst)+len(r.writeFirst)), uint64(obsv.TrigWAR))
	r.Reset()
	r.writeFirst[word] = struct{}{}
	p := r.payload()
	return &p
}

// AdmitStep implements device.PreStepFilter; Ratchet's PreStep reads
// only the access.
func (r *Ratchet) AdmitStep(_ uint32, acc device.AccessPreview, _ uint64) bool {
	return r.admit(acc)
}

// admit tracks an access that keeps the section idempotent and reports
// true, or reports false, changing nothing, for a store to a read-first
// word.
func (r *Ratchet) admit(acc device.AccessPreview) bool {
	if !acc.Valid {
		return true
	}
	word := acc.Addr &^ 3
	if _, ok := r.writeFirst[word]; ok {
		return true
	}
	if !acc.Store {
		r.readFirst[word] = struct{}{}
		return true
	}
	if _, ok := r.readFirst[word]; ok {
		return false
	}
	r.writeFirst[word] = struct{}{}
	return true
}

// PostStep enforces the compiler's section-length cap.
func (r *Ratchet) PostStep(d *device.Device, _ cpu.Step) *device.Payload {
	if r.MaxRegion == 0 || d.ExecSinceBackup() < r.MaxRegion {
		return nil
	}
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigWatchdog), d.ExecSinceBackup())
	d.Trace(obsv.EvWARFlush, uint64(len(r.readFirst)+len(r.writeFirst)), uint64(obsv.TrigWatchdog))
	r.Reset()
	p := r.payload()
	return &p
}

// Horizon promises no checkpoint until the section-length cap, as
// Timer's does; AdmitStep ends a batch before a write-after-read.
func (r *Ratchet) Horizon(d *device.Device) uint64 {
	return watchdogHorizon(r.MaxRegion, d.ExecSinceBackup())
}

// ObservedSys reports that the section cap ignores SYS codes.
func (r *Ratchet) ObservedSys() isa.SysMask { return 0 }

// FinalPayload commits the registers at halt.
func (r *Ratchet) FinalPayload(*device.Device) device.Payload {
	return r.payload()
}

var (
	_ device.Strategy      = (*Ratchet)(nil)
	_ device.PreStepFilter = (*Ratchet)(nil)
	_ device.SysObserver   = (*Ratchet)(nil)
)
