package strategy

import (
	"slices"
	"sort"

	"ehmodel/internal/cpu"
	"ehmodel/internal/device"
	"ehmodel/internal/isa"
	"ehmodel/internal/obsv"
)

// Clank is the idempotency-tracking architecture of Hicks (§V-B): main
// memory is nonvolatile, and hardware buffers watch the address stream
// for write-after-read violations. Storing to a word whose first access
// since the last checkpoint was a read would break re-execution, so a
// register checkpoint is taken just before such a store commits. A
// watchdog forces a checkpoint if no violation occurs for WatchdogCycles.
//
// Workloads run under Clank must keep mutable data in FRAM.
type Clank struct {
	base
	// ReadFirstEntries and WriteFirstEntries size the two tracking
	// buffers; the paper's configuration uses 8 each.
	ReadFirstEntries  int
	WriteFirstEntries int
	// WatchdogCycles forces a checkpoint after this many executed
	// cycles without one; the paper uses 8000.
	WatchdogCycles uint64
	// ArchBytes is the checkpoint size; the paper's Cortex-M0+ target
	// saves 20 32-bit registers (80 bytes).
	ArchBytes int

	// readFirst and writeFirst hold at most ReadFirstEntries and
	// WriteFirstEntries words, so they are slices searched linearly and
	// truncated on Reset: a checkpoint or power failure reuses their
	// storage instead of allocating. Only membership and length are
	// observable.
	readFirst  []uint32
	writeFirst []uint32
	stats      ClankStats
	// violated records every word whose store triggered a WAR violation
	// over the whole run. Like stats it is analysis-side bookkeeping and
	// survives Reset; the static analyzer's hazard set must cover it.
	violated map[uint32]struct{}
}

// ClankStats counts why checkpoints happened. The counters describe
// the whole run (analysis-side bookkeeping), so they survive Reset.
type ClankStats struct {
	Violations    uint64 // write-after-read idempotency violations
	BufferFulls   uint64 // tracking-buffer overflows
	WatchdogFires uint64
}

// NewClank returns a Clank strategy with the paper's configuration:
// 8-entry read-first and write-first buffers, an 8000-cycle watchdog and
// an 80-byte register checkpoint.
func NewClank() *Clank {
	return &Clank{
		ReadFirstEntries:  8,
		WriteFirstEntries: 8,
		WatchdogCycles:    8000,
		ArchBytes:         80,
	}
}

// Name implements device.Strategy.
func (c *Clank) Name() string { return "clank" }

// Stats is exported for the characterization experiments.
func (c *Clank) Stats() ClankStats { return c.stats }

// ViolationWords returns the sorted set of words whose stores raised
// WAR violations at any point in the run. The analyze package's
// cross-validation asserts this is a subset of the static hazard set.
func (c *Clank) ViolationWords() []uint32 {
	out := make([]uint32, 0, len(c.violated))
	for w := range c.violated {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *Clank) payload() device.Payload {
	return device.Payload{ArchBytes: c.ArchBytes}
}

// Reset drops the volatile tracking buffers (lost at power failure and
// cleared by every checkpoint).
func (c *Clank) Reset() {
	c.readFirst = c.readFirst[:0]
	c.writeFirst = c.writeFirst[:0]
}

// Boot takes the mandatory initial checkpoint on a cold start so that
// re-execution never reaches back past the first instruction.
func (c *Clank) Boot(d *device.Device) *device.Payload {
	if d.HasCheckpoint() {
		return nil
	}
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigBoot), 0)
	p := c.payload()
	return &p
}

// occupancy is the combined tracking-buffer fill, the EvWARFlush
// high-water sample.
func (c *Clank) occupancy() uint64 {
	return uint64(len(c.readFirst) + len(c.writeFirst))
}

// PreStep detects idempotency violations before the access commits: an
// access the region can absorb is tracked, and one it cannot — a store
// to a read-first word, or a new word for a full buffer — forces a
// checkpoint and starts the fresh region with that access.
func (c *Clank) PreStep(d *device.Device, _ isa.Instr, acc device.AccessPreview) *device.Payload {
	if c.admit(acc) {
		return nil
	}
	word := acc.Addr &^ 3
	reason := obsv.TrigBufferFull
	if acc.Store && slices.Contains(c.readFirst, word) {
		reason = obsv.TrigWAR
		c.stats.Violations++
		if c.violated == nil {
			c.violated = make(map[uint32]struct{})
		}
		c.violated[word] = struct{}{}
	} else {
		c.stats.BufferFulls++
	}
	d.Trace(obsv.EvTrigger, uint64(reason), uint64(word))
	d.Trace(obsv.EvWARFlush, c.occupancy(), uint64(reason))
	c.Reset()
	if acc.Store {
		c.writeFirst = append(c.writeFirst, word)
	} else {
		c.readFirst = append(c.readFirst, word)
	}
	p := c.payload()
	return &p
}

// AdmitStep implements device.PreStepFilter; Clank's PreStep reads only
// the access.
func (c *Clank) AdmitStep(_ uint32, acc device.AccessPreview, _ uint64) bool {
	return c.admit(acc)
}

// admit tracks an access that keeps the region idempotent and reports
// true, or reports false, changing nothing, for one that forces a
// checkpoint: a store to a read-first word, or a new word for a full
// buffer.
func (c *Clank) admit(acc device.AccessPreview) bool {
	if !acc.Valid {
		return true
	}
	word := acc.Addr &^ 3
	if slices.Contains(c.writeFirst, word) {
		return true // our own data: idempotent
	}
	if acc.Store {
		if slices.Contains(c.readFirst, word) || len(c.writeFirst) >= c.WriteFirstEntries {
			return false
		}
		c.writeFirst = append(c.writeFirst, word)
		return true
	}
	if slices.Contains(c.readFirst, word) {
		return true
	}
	if len(c.readFirst) >= c.ReadFirstEntries {
		return false
	}
	c.readFirst = append(c.readFirst, word)
	return true
}

// PostStep runs the watchdog.
func (c *Clank) PostStep(d *device.Device, _ cpu.Step) *device.Payload {
	if c.WatchdogCycles == 0 || d.ExecSinceBackup() < c.WatchdogCycles {
		return nil
	}
	c.stats.WatchdogFires++
	d.Trace(obsv.EvTrigger, uint64(obsv.TrigWatchdog), d.ExecSinceBackup())
	d.Trace(obsv.EvWARFlush, c.occupancy(), uint64(obsv.TrigWatchdog))
	c.Reset() // a checkpoint ends the region; tracking restarts
	p := c.payload()
	return &p
}

// Horizon promises no watchdog checkpoint until the watchdog period
// elapses, as Timer's does. The checkpoints PreStep takes ahead of a
// violating access need no headroom: the batched engine asks AdmitStep
// before every instruction and ends the batch before one that violates.
func (c *Clank) Horizon(d *device.Device) uint64 {
	return watchdogHorizon(c.WatchdogCycles, d.ExecSinceBackup())
}

// ObservedSys reports that the watchdog ignores SYS codes.
func (c *Clank) ObservedSys() isa.SysMask { return 0 }

// FinalPayload commits the register state at halt.
func (c *Clank) FinalPayload(*device.Device) device.Payload {
	return device.Payload{ArchBytes: c.ArchBytes}
}

var (
	_ device.Strategy      = (*Clank)(nil)
	_ device.PreStepFilter = (*Clank)(nil)
	_ device.SysObserver   = (*Clank)(nil)
)
