package device

import (
	"sync/atomic"

	"ehmodel/internal/obsv"
)

// This file is the device's entire coupling to the observability layer.
// The contract (enforced by TestObservabilityDisabledCost against the
// committed BENCH_core.json baseline): with no tracer attached, every
// emission site is a single `d.obs != nil` check — no Event is built,
// nothing allocates, and the hot loops are otherwise untouched. Events
// fire only at lifecycle granularity: periods, boots, checkpoints,
// batches, faults — never per instruction.

// defaultObserver is the process-wide tracer provider Config.Observe
// falls back to, mirroring SetDefaultEngine: a CLI sets it once and
// every device built by sweep drivers many layers down picks it up.
var defaultObserver atomic.Pointer[func() obsv.Tracer]

// SetDefaultObserver installs a provider consulted by New whenever
// Config.Observe is nil. The provider is invoked once per device, so it
// can hand out per-device sinks (e.g. a Collector's loss-free
// per-worker Metrics, or a shared Chrome sink wrapped in WithTid).
// Pass nil to clear. Call it before any devices run.
func SetDefaultObserver(provider func() obsv.Tracer) {
	if provider == nil {
		defaultObserver.Store(nil)
		return
	}
	defaultObserver.Store(&provider)
}

// DefaultObserver invokes the process-wide provider once and returns
// its tracer (nil when no provider is installed). Layers that must
// combine the default sink with their own per-run tracer — the sweep
// executor attaching a span counter to a traced cell — resolve it here
// and pass the combination through Config.Observe, which preserves the
// provider's once-per-device contract.
func DefaultObserver() obsv.Tracer {
	if p := defaultObserver.Load(); p != nil {
		return (*p)()
	}
	return nil
}

// resolveObserver picks the device's tracer at construction time.
func resolveObserver(explicit obsv.Tracer) obsv.Tracer {
	if explicit != nil {
		return explicit
	}
	return DefaultObserver()
}

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

// Observing reports whether a tracer is attached, so strategies can
// skip any work needed only to build event arguments.
func (d *Device) Observing() bool { return d.obs != nil }
