// Package runner is the resilient parallel sweep engine every
// multi-run evaluation driver routes through: a bounded worker pool
// with panic isolation, per-run deadlines (enforced inside device.Run
// via Config.RunTimeout/Interrupt), cancellation, and ordered merging
// of results.
//
// The engine's load-bearing property is the determinism invariant:
// because every sweep point is an independent, seeded simulation and
// results are merged in input order regardless of completion order, a
// sweep produces byte-identical figures and CSVs at any worker count.
// That is what makes parallelism safe for a reproduction repo — speed
// never changes the science.
//
// Failure is per-point, not per-sweep. A panicking simulation is
// recovered into a typed *RunError (wrapping a *PanicError that carries
// the stack); a run that blows its wall-clock budget surfaces the
// device's typed ErrDeadlineExceeded; a cancelled context marks the
// points that never started. Surviving points are always returned, so
// drivers can degrade gracefully: drop the failed points, note the
// failures on the figure, and keep the sweep's output usable.
//
// Concurrent sweeps can share one bound: WithLimit puts a pool of n
// worker slots on a context, and every MapCtx started under it — from
// any goroutine — runs each point in one of those slots. A front end
// that runs several drivers at once thereby keeps "at most n
// simulations at once" without the drivers knowing of each other.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"ehmodel/internal/device"
)

// Options configures a sweep execution. The zero value runs with
// GOMAXPROCS workers and no per-run deadline.
type Options struct {
	// Workers bounds concurrent sweep points; ≤ 0 means GOMAXPROCS.
	Workers int
	// RunTimeout is the wall-clock budget of one sweep point. Drivers
	// pass it into device.Config.RunTimeout, where a coarse cycle-batch
	// check aborts a runaway simulation with ErrDeadlineExceeded. Zero
	// means no deadline.
	RunTimeout time.Duration
	// Label names sweep point i in error reports (e.g. "fig5 τ_B=360").
	// Nil falls back to "point i".
	Label func(i int) string
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) label(i int) string {
	if o.Label != nil {
		return o.Label(i)
	}
	return fmt.Sprintf("point %d", i)
}

// RunError is one failed sweep point, carrying enough context (index
// and the driver-supplied label, which should name the point's
// seed/config) to replay the run in isolation.
type RunError struct {
	// Index is the point's input-order position in the sweep.
	Index int
	// Label identifies the point's configuration for replay.
	Label string
	// Err is the underlying failure: a *PanicError, the device's
	// ErrDeadlineExceeded, a context cancellation, or the simulation's
	// own error.
	Err error
}

func (e *RunError) Error() string { return fmt.Sprintf("%s: %v", e.Label, e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// PanicError is a panicking simulation converted into a value: the
// recovered payload plus the goroutine stack at the panic site. The
// sweep engine guarantees a panic in one point never kills the process
// or the rest of the sweep.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Errors aggregates a sweep's failed points in input order. A nil
// Errors means every point succeeded.
type Errors []*RunError

func (e Errors) Error() string {
	switch len(e) {
	case 0:
		return "runner: no failed points"
	case 1:
		return "runner: " + e[0].Error()
	default:
		return fmt.Sprintf("runner: %d sweep points failed; first: %s", len(e), e[0].Error())
	}
}

// Unwrap exposes the individual point failures, so errors.Is/As on the
// aggregate reach the typed errors inside (ErrDeadlineExceeded,
// *PanicError, a cancellation cause, ...).
func (e Errors) Unwrap() []error {
	out := make([]error, len(e))
	for i, re := range e {
		out[i] = re
	}
	return out
}

// FailedSet returns the failed input indices as a set, for dropping
// those points while assembling figures.
func (e Errors) FailedSet() map[int]bool {
	if len(e) == 0 {
		return nil
	}
	s := make(map[int]bool, len(e))
	for _, re := range e {
		s[re.Index] = true
	}
	return s
}

// Summary is a one-line account of the failures sized for a figure
// note: how many of the sweep's points failed, a breakdown by kind
// (program bugs, panics, deadlines, stalled supplies, cancellations),
// and why the first one did, verbatim, for replay.
func (e Errors) Summary(total int) string {
	if len(e) == 0 {
		return fmt.Sprintf("all %d points ok", total)
	}
	counts := make(map[string]int)
	var order []string
	for _, re := range e {
		k := errKind(re.Err)
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	parts := make([]string, 0, len(order))
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
	}
	return fmt.Sprintf("%d/%d points failed (%s) and were dropped; first: %s",
		len(e), total, strings.Join(parts, ", "), e[0].Error())
}

// ClassCounts buckets the failed points by kind — the same classes as
// Summary (program, panic, deadline, no-progress, cancelled, other) —
// for the observability layer's metrics export (error_<class> rows).
// Nil when every point succeeded.
func (e Errors) ClassCounts() map[string]uint64 {
	if len(e) == 0 {
		return nil
	}
	out := make(map[string]uint64, 4)
	for _, re := range e {
		out[errKind(re.Err)]++
	}
	return out
}

// errKind buckets one point failure for the summary breakdown. Program
// errors name workload bugs (the PC left the code), panics name harness
// or strategy bugs, deadlines and no-progress name runs the sweep gave
// up on, and cancellations are the caller's own context.
func errKind(err error) string {
	var panicErr *PanicError
	var progErr *device.ProgramError
	switch {
	case errors.As(err, &progErr):
		return "program"
	case errors.As(err, &panicErr):
		return "panic"
	case errors.Is(err, device.ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, device.ErrNoProgress):
		return "no-progress"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	}
	return "other"
}

// Interrupt adapts a context into the poll function device.Config
// expects: non-blocking, nil while the context lives, and the
// cancellation cause once it is done. Pass a nil context to disable.
func Interrupt(ctx context.Context) func() error {
	if ctx == nil {
		return nil
	}
	return func() error {
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		default:
			return nil
		}
	}
}

// workerKey carries the *slot executing the current point, for
// provenance records that want to name the worker.
type workerKey struct{}

// limitKey carries the *limit WithLimit installed.
type limitKey struct{}

// slot is one worker slot. lim is the shared pool it belongs to, or nil
// for a worker of a MapCtx that runs under no limit.
type slot struct {
	id  int
	lim *limit
}

// limit is a pool of worker slots shared by every MapCtx started under
// one context. free holds the slots no point is running in.
type limit struct {
	free chan *slot
}

// WithLimit returns a context under which every point of every MapCtx —
// across goroutines, for as long as the context lives — holds one of n
// worker slots while its fn runs (n ≤ 0 means GOMAXPROCS). The limit
// takes the place of each sweep's Options.Workers: all of a sweep's
// points wait for slots at once, served in the order they queued, and
// WorkerFrom reports the shared slot. A point still waiting for a slot
// when the context ends fails with the cancellation cause. A MapCtx
// started inside a point runs its points one at a time in that point's
// slot, since waiting for a second slot could deadlock.
func WithLimit(ctx context.Context, n int) context.Context {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	l := &limit{free: make(chan *slot, n)}
	for i := 0; i < n; i++ {
		l.free <- &slot{id: i, lim: l}
	}
	return context.WithValue(ctx, limitKey{}, l)
}

// acquire waits for a free slot, or fails with the cancellation cause
// once ctx ends — also when a slot and the end arrive together, so a
// cancelled sweep starts nothing new.
func (l *limit) acquire(ctx context.Context) (*slot, error) {
	select {
	case s := <-l.free:
		if ctx.Err() == nil {
			return s, nil
		}
		l.free <- s
	case <-ctx.Done():
	}
	return nil, context.Cause(ctx)
}

// WorkerFrom returns the worker slot (0-based) running the current
// sweep point, or -1 outside a MapCtx worker. Under WithLimit the slot
// is the shared one, in [0, n).
func WorkerFrom(ctx context.Context) int {
	if s, ok := ctx.Value(workerKey{}).(*slot); ok {
		return s.id
	}
	return -1
}

// Map runs fn for every index in [0, n) on a bounded worker pool and
// returns the results merged in input order. results[i] holds fn(i)'s
// value for every succeeded point and the zero value for failed ones;
// errs lists the failures in input order (nil when the sweep is clean).
//
// Each invocation is isolated: a panic inside fn(i) is recovered into a
// *PanicError and recorded against point i only. When ctx is cancelled,
// points already running finish (or abort via the Interrupt hook the
// driver wired into the device) and points not yet started are marked
// failed with the cancellation cause — the partial results that did
// complete are still returned, in order.
func Map[T any](ctx context.Context, n int, o Options, fn func(i int) (T, error)) ([]T, Errors) {
	return MapCtx(ctx, n, o, func(_ context.Context, i int) (T, error) { return fn(i) })
}

// MapCtx is Map with the worker's context threaded into fn: the same
// bounded pool, panic isolation and ordered merge, plus a context
// carrying the worker slot (WorkerFrom) so request-scoped layers above
// — tracing spans, provenance records — know which slot resolved each
// point. fn must treat its context as request-scoped: it is derived
// from ctx and may be shared by every point the worker runs. Under
// WithLimit each point holds one of the limit's shared slots while fn
// runs.
func MapCtx[T any](ctx context.Context, n int, o Options, fn func(ctx context.Context, i int) (T, error)) ([]T, Errors) {
	results := make([]T, n)
	if n <= 0 {
		return results, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	perPoint := make([]*RunError, n)
	failPoint := func(i int, err error) {
		perPoint[i] = &RunError{Index: i, Label: o.label(i), Err: err}
	}
	point := func(ctx context.Context, i int) {
		v, err := runOne(ctx, i, fn)
		if err != nil {
			failPoint(i, err)
		} else {
			results[i] = v
		}
	}

	lim, _ := ctx.Value(limitKey{}).(*limit)
	if held, _ := ctx.Value(workerKey{}).(*slot); lim != nil && held != nil && held.lim == lim {
		// Nested inside a point that holds one of lim's slots: waiting
		// for another could deadlock, so run in this one, serially.
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				failPoint(i, context.Cause(ctx))
				continue
			}
			point(ctx, i)
		}
		return results, collect(perPoint)
	}

	// Under a limit every point queues for a slot at once, in input
	// order, so the slots serve concurrent sweeps first come, first
	// served: a sweep of long cells is not starved by a stream of short
	// ones, and the limit alone bounds the running points. A queued
	// point costs one parked goroutine, small next to the simulation it
	// waits to run.
	workers := o.workers(n)
	if lim != nil {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx := ctx
			if lim == nil {
				wctx = context.WithValue(ctx, workerKey{}, &slot{id: w})
			}
			for i := range idx {
				// The feed's select may hand over a point just as the
				// context ends; such a point does not start either.
				if ctx.Err() != nil {
					failPoint(i, context.Cause(ctx))
					continue
				}
				if lim == nil {
					point(wctx, i)
					continue
				}
				s, err := lim.acquire(ctx)
				if err != nil {
					failPoint(i, err)
					continue
				}
				point(context.WithValue(ctx, workerKey{}, s), i)
				lim.free <- s
			}
		}(w)
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			for j := i; j < n; j++ {
				failPoint(j, context.Cause(ctx))
			}
			break feed
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	return results, collect(perPoint)
}

// collect gathers the failed points in input order; nil when none
// failed.
func collect(perPoint []*RunError) Errors {
	var errs Errors
	for _, e := range perPoint {
		if e != nil {
			errs = append(errs, e)
		}
	}
	return errs
}

// runOne invokes fn(ctx, i) with panic isolation.
func runOne[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}
