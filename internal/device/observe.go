package device

import "ehmodel/internal/obsv"

// This file is the device's entire coupling to the observability layer.
// The contract (enforced by TestObservabilityDisabledCost against the
// committed BENCH_core.json baseline): with no tracer attached, every
// emission site is a single `d.obs != nil` check — no Event is built,
// nothing allocates, and the hot loops are otherwise untouched. Events
// fire only at lifecycle granularity: periods, boots, checkpoints,
// batches, faults — never per instruction.

// emit sends one event stamped with the device's current position.
// Callers on hot paths must check d.obs != nil first so the disabled
// path never constructs an Event; Trace wraps the check for strategies.
func (d *Device) emit(t obsv.EventType, arg, arg2 uint64, f float64) {
	e := obsv.Event{
		Type:   t,
		Period: int32(len(d.result.Periods)),
		Cycles: d.cycles,
		TimeS:  d.timeS,
		Arg:    arg,
		Arg2:   arg2,
		F:      f,
	}
	if d.tape != nil {
		d.tape.event(e)
	}
	d.obs.Event(e)
}

// Trace lets strategies emit lifecycle events (trigger reasons,
// WAR-buffer flushes) through the device's tracer. It is safe — and
// free beyond the nil checks — when observability is disabled, and on
// a nil receiver (strategy unit tests drive hooks without a device).
func (d *Device) Trace(t obsv.EventType, arg, arg2 uint64) {
	if d == nil || d.obs == nil {
		return
	}
	d.emit(t, arg, arg2, 0)
}
