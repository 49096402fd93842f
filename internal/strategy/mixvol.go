package strategy

import (
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// MixedVolatility is the hypothetical processor of §V-B used to
// characterize application state (Fig. 10): a parametrized watchdog
// timer decides when to back up, and an unbounded store queue tracks
// which words were modified since the last backup — the backup payload
// is exactly that modified data (α_B·τ_B of Eq. 4) plus architectural
// state.
type MixedVolatility struct {
	base
	// WatchdogCycles is the backup period (the paper sweeps 250–3000).
	WatchdogCycles uint64

	dirty map[uint32]struct{} // modified words since last backup
}

// NewMixedVolatility returns the strategy with the given watchdog
// period.
func NewMixedVolatility(watchdog uint64) *MixedVolatility {
	m := &MixedVolatility{WatchdogCycles: watchdog}
	m.Reset()
	return m
}

// Name implements device.Strategy.
func (m *MixedVolatility) Name() string { return "mixvol" }

// Reset drops the volatile store queue. It runs at every boot and
// backup, so it empties the map in place and keeps its storage.
func (m *MixedVolatility) Reset() { clearSet(&m.dirty) }

// DirtyBytes is the current store-queue payload in bytes.
func (m *MixedVolatility) DirtyBytes() int { return 4 * len(m.dirty) }

// PreStep records stores into the queue. It never fires: the watchdog
// backs up in PostStep.
func (m *MixedVolatility) PreStep(_ *device.Device, _ isa.Instr, acc device.AccessPreview) *device.Payload {
	trackStore(m.dirty, acc)
	return nil
}

// AdmitStep implements device.PreStepFilter: it records the store as
// PreStep does and admits every instruction.
func (m *MixedVolatility) AdmitStep(_ uint32, acc device.AccessPreview, _ uint64) bool {
	trackStore(m.dirty, acc)
	return true
}

// Horizon promises no backup until the watchdog period elapses, as
// Timer's does.
func (m *MixedVolatility) Horizon(d *device.Device) uint64 {
	return watchdogHorizon(m.WatchdogCycles, d.ExecSinceBackup())
}

// ObservedSys reports that the watchdog ignores SYS codes.
func (m *MixedVolatility) ObservedSys() isa.SysMask { return 0 }

func (m *MixedVolatility) payload(d *device.Device) device.Payload {
	return device.Payload{
		ArchBytes: cpu.ArchStateBytes,
		AppBytes:  m.DirtyBytes(),
		SaveSRAM:  true,
	}
}

// PostStep fires the watchdog backup.
func (m *MixedVolatility) PostStep(d *device.Device, _ cpu.Step) *device.Payload {
	if m.WatchdogCycles == 0 || d.ExecSinceBackup() < m.WatchdogCycles {
		return nil
	}
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigWatchdog), d.ExecSinceBackup())
	d.Trace(obsv.EvWARFlush, uint64(len(m.dirty)), uint64(obsv.TrigWatchdog))
	p := m.payload(d)
	m.Reset() // queue drains into the checkpoint
	return &p
}

// FinalPayload commits the remaining modified data.
func (m *MixedVolatility) FinalPayload(d *device.Device) device.Payload {
	p := m.payload(d)
	m.Reset()
	return p
}

var (
	_ device.Strategy      = (*MixedVolatility)(nil)
	_ device.PreStepFilter = (*MixedVolatility)(nil)
	_ device.SysObserver   = (*MixedVolatility)(nil)
)
