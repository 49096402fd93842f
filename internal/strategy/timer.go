package strategy

import (
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// Timer is the fixed-interval multi-backup system of the paper's first
// validation experiment (§V-A, Fig. 5): an interrupt fires every TauB
// executed cycles and the application backs up its architectural state
// plus AlphaB·TauB bytes of application data.
type Timer struct {
	base
	// TauB is the backup period in executed cycles; must be > 0.
	TauB uint64
	// AlphaB is the application state growth rate in bytes/cycle
	// (§V-A uses 0.1).
	AlphaB float64
	// SnapshotSRAM controls whether checkpoints capture volatile memory
	// contents. The Fig. 5 experiment keeps its state in SRAM, so the
	// default (true via NewTimer) restores it faithfully.
	SnapshotSRAM bool
}

// NewTimer returns a timer strategy with the paper's defaults.
func NewTimer(tauB uint64, alphaB float64) *Timer {
	return &Timer{TauB: tauB, AlphaB: alphaB, SnapshotSRAM: true}
}

// Name implements device.Strategy.
func (t *Timer) Name() string { return "timer" }

func (t *Timer) payload(cycles uint64) device.Payload {
	return device.Payload{
		ArchBytes: cpu.ArchStateBytes,
		AppBytes:  int(t.AlphaB * float64(cycles)),
		SaveSRAM:  t.SnapshotSRAM,
	}
}

// PostStep fires a backup when the watchdog period elapses.
func (t *Timer) PostStep(d *device.Device, _ cpu.Step) *device.Payload {
	if t.TauB == 0 || d.ExecSinceBackup() < t.TauB {
		return nil
	}
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigTimer), d.ExecSinceBackup())
	p := t.payload(d.ExecSinceBackup())
	return &p
}

// Horizon promises no backup until the watchdog period elapses: the
// batched engine ends its batch exactly where the executed-cycle
// counter crosses TauB, which is the same instruction the per-step
// engine fires on.
func (t *Timer) Horizon(d *device.Device) uint64 {
	return watchdogHorizon(t.TauB, d.ExecSinceBackup())
}

// watchdogHorizon is the Horizon of a PostStep that fires once exec, the
// executed cycles since the last backup, reaches period: the cycles
// left, 1 (per-step) once they are due, and infinite with the watchdog
// off (period 0).
func watchdogHorizon(period, exec uint64) uint64 {
	switch {
	case period == 0:
		return device.HorizonInfinite
	case exec >= period:
		return 1
	}
	return period - exec
}

// ObservedSys reports that the watchdog ignores SYS codes entirely, so
// batches need not end at them.
func (t *Timer) ObservedSys() isa.SysMask { return 0 }

// FinalPayload commits the remaining partial interval at halt.
func (t *Timer) FinalPayload(d *device.Device) device.Payload {
	return t.payload(d.ExecSinceBackup())
}
