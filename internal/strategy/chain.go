package strategy

import (
	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// Chain models the task-and-channel system of Colin & Lucia (§II, §IV-A):
// programs are decomposed into atomic tasks whose outputs flow through
// nonvolatile channels. A task's writes are buffered and commit at the
// task boundary, so the commit payload is exactly the data the task
// produced — far smaller than DINO's full-memory checkpoint — plus the
// task pointer and registers. On a power failure the current task
// restarts from its boundary.
//
// The simulator realizes channel semantics with a store queue: words
// written since the last commit form the channel payload; the restore
// reinstates the committed volatile image, so partial task execution
// never leaks (effectively-once semantics).
type Chain struct {
	base
	dirty map[uint32]struct{} // words written by the in-flight task
}

// NewChain returns a Chain strategy.
func NewChain() *Chain {
	c := &Chain{}
	c.Reset()
	return c
}

// Name implements device.Strategy.
func (c *Chain) Name() string { return "chain" }

// Reset drops the in-flight task's write set. It runs at every boot and
// commit, so it empties the map in place and keeps its storage.
func (c *Chain) Reset() { clearSet(&c.dirty) }

// PreStep records the task's writes (the channel payload). It never
// fires: Chain commits only at task ends.
func (c *Chain) PreStep(_ *device.Device, _ isa.Instr, acc device.AccessPreview) *device.Payload {
	trackStore(c.dirty, acc)
	return nil
}

// AdmitStep implements device.PreStepFilter: it records the write as
// PreStep does and admits every instruction.
func (c *Chain) AdmitStep(_ uint32, acc device.AccessPreview, _ uint64) bool {
	trackStore(c.dirty, acc)
	return true
}

// Horizon is infinite: Chain commits only at the task ends it declares
// through ObservedSys, and its PreStep never fires.
func (c *Chain) Horizon(*device.Device) uint64 { return device.HorizonInfinite }

// ObservedSys reports the task-end marker, the only SYS code PostStep
// commits at.
func (c *Chain) ObservedSys() isa.SysMask { return isa.SysTaskEnd.Mask() }

func (c *Chain) payload() device.Payload {
	return device.Payload{
		ArchBytes: cpu.ArchStateBytes,
		AppBytes:  4 * len(c.dirty),
		SaveSRAM:  true,
	}
}

// PostStep commits the channel at every task end.
func (c *Chain) PostStep(d *device.Device, st cpu.Step) *device.Payload {
	if !st.HasSys || st.Sys != isa.SysTaskEnd {
		return nil
	}
	p := c.payload()
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigTaskEnd), uint64(p.Bytes()))
	c.Reset()
	return &p
}

// FinalPayload commits whatever the trailing code produced.
func (c *Chain) FinalPayload(*device.Device) device.Payload {
	p := c.payload()
	c.Reset()
	return p
}

// Regions implements device.RegionObserver: Chain commits only at task
// boundary SYS sites, so checkpoint-mode WCEC verdicts apply (see the
// DINO note — a subset of the site set only makes livelock verdicts
// conservative).
func (c *Chain) Regions() device.RegionScheme { return device.RegionCheckpointSites }

var (
	_ device.Strategy       = (*Chain)(nil)
	_ device.PreStepFilter  = (*Chain)(nil)
	_ device.SysObserver    = (*Chain)(nil)
	_ device.RegionObserver = (*Chain)(nil)
)
