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
// Every point runs in a slot of a pool. WithLimit puts a pool of n
// worker slots on a context, and every MapCtx started under it — from
// any goroutine — runs each point in one of those slots. A front end
// installs one pool per process, so "at most n simulations at once"
// holds across every sweep it starts without the drivers knowing of
// each other; a sweep started under no pool gets a private one. A pool
// runs its points on at most n worker goroutines, one per busy slot,
// which drain one first-come-first-served queue and exit when it is
// empty: a queued point costs a place in the queue, not a goroutine.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"

	"ehmodel/internal/device"
)

// Options configures a sweep execution. The zero value runs with
// GOMAXPROCS workers.
type Options struct {
	// Workers sizes the private pool of a sweep whose context carries
	// none; ≤ 0 means GOMAXPROCS. Under a WithLimit pool it is ignored.
	Workers int
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

// slot is one worker slot of a pool.
type slot struct{ id int }

// limit is a pool of worker slots shared by every MapCtx started under
// one context. Sweeps waiting for slots stand in one queue, oldest
// first, and each busy slot has one worker goroutine that drains it:
// free slots exist only while the queue is empty.
type limit struct {
	mu    sync.Mutex
	free  []*slot
	queue []*batch
}

// batch is one sweep's share of a pool's queue: the points [next, n),
// waiting in input order.
type batch struct {
	ctx     context.Context
	next, n int // guarded by the pool's mu
	run     func(ctx context.Context, i int)
	fail    func(i int, err error)
	wg      sync.WaitGroup // the points not yet run or failed
}

// runIn runs point i in slot s, or fails it if the sweep has ended: a
// cancelled sweep starts nothing new, also when its point and its end
// reach a slot together.
func (b *batch) runIn(s *slot, i int) {
	if b.ctx.Err() == nil {
		b.run(context.WithValue(b.ctx, workerKey{}, s), i)
	} else {
		b.fail(i, context.Cause(b.ctx))
	}
	b.wg.Done()
}

// WithLimit returns a context under which every point of every MapCtx —
// across goroutines, for as long as the context lives — holds one of n
// worker slots while its fn runs (n ≤ 0 means GOMAXPROCS), and
// WorkerFrom reports that slot. A sweep queues all of its points at
// once, in input order, and the pool serves every queued point first
// come, first served: a sweep of long cells is not starved by a stream
// of short ones, and one sweep on one slot runs its points in input
// order. A busy slot runs its points on one worker goroutine, which
// takes the oldest waiting point when one finishes and exits when none
// waits, so a pool never holds more than n goroutines however many
// points wait. A sweep whose context ends withdraws its waiting points,
// which fail with the cancellation cause.
//
// The outermost pool wins: on a context that already carries one,
// WithLimit returns ctx unchanged and ignores n, so a front end's bound
// holds over every call below it that asks for a pool of its own.
func WithLimit(ctx context.Context, n int) context.Context {
	if _, ok := ctx.Value(limitKey{}).(*limit); ok {
		return ctx
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	l := &limit{free: make([]*slot, n)}
	for i := range l.free {
		l.free[i] = &slot{id: n - 1 - i} // a stack: slot 0 goes first
	}
	return context.WithValue(ctx, limitKey{}, l)
}

// enqueue queues b behind every waiting point and starts a worker on
// each free slot while points wait.
func (l *limit) enqueue(b *batch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queue = append(l.queue, b)
	for len(l.free) > 0 {
		q, i, ok := l.pop()
		if !ok {
			return
		}
		last := len(l.free) - 1
		go l.work(l.free[last], q, i)
		l.free = l.free[:last]
	}
}

// pop takes the oldest waiting point; l.mu must be held.
func (l *limit) pop() (*batch, int, bool) {
	if len(l.queue) == 0 {
		return nil, 0, false
	}
	b := l.queue[0]
	i := b.next
	if b.next++; b.next == b.n {
		l.queue[0] = nil // the backing array must not keep the sweep alive
		l.queue = l.queue[1:]
	}
	return b, i, true
}

// work is the worker of slot s: it runs point i of b, then the oldest
// waiting point while one waits, and then frees s. It yields the
// processor after each point, as a goroutine per point did by exiting,
// so that the goroutines a point wakes run between points: without the
// yield, a quick cold pass on two slots ran 11 GCs instead of 17 on
// twice the live heap, and its peak RSS rose by 7–10 MB.
func (l *limit) work(s *slot, b *batch, i int) {
	for ok := true; ok; {
		b.runIn(s, i)
		runtime.Gosched()
		l.mu.Lock()
		if b, i, ok = l.pop(); !ok {
			l.free = append(l.free, s)
		}
		l.mu.Unlock()
	}
}

// withdraw takes b's waiting points out of the queue and fails them
// with the cause of b's ended context.
func (l *limit) withdraw(b *batch) {
	l.mu.Lock()
	from := b.next
	if from < b.n {
		l.queue = slices.DeleteFunc(l.queue, func(q *batch) bool { return q == b })
		b.next = b.n
	}
	l.mu.Unlock()
	for i := from; i < b.n; i++ {
		b.fail(i, context.Cause(b.ctx))
		b.wg.Done()
	}
}

// WorkerFrom returns the worker slot (0-based) running the current
// sweep point, or -1 outside a MapCtx point. The slot belongs to the
// pool the sweep ran under, in [0, n) for a WithLimit pool of n.
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

// MapCtx is Map with the point's context threaded into fn: the same
// bounded pool, panic isolation and ordered merge, plus a context
// carrying the worker slot (WorkerFrom) so request-scoped layers above
// — tracing spans, provenance records — know which slot resolved each
// point. Each point holds a slot of the context's pool while fn runs;
// a context without a pool gets a private one of o.Workers slots. A
// MapCtx started inside a point runs its points one at a time in that
// point's slot, since waiting for a second slot could deadlock.
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

	if _, nested := ctx.Value(workerKey{}).(*slot); nested {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				failPoint(i, context.Cause(ctx))
				continue
			}
			point(ctx, i)
		}
		return results, collect(perPoint)
	}

	ctx = WithLimit(ctx, o.workers(n))
	lim := ctx.Value(limitKey{}).(*limit)
	b := &batch{ctx: ctx, n: n, run: point, fail: failPoint}
	b.wg.Add(n)
	lim.enqueue(b)
	// Registered after enqueue: a withdrawal that ran first would leave
	// a drained batch to be queued.
	stop := context.AfterFunc(ctx, func() { lim.withdraw(b) })
	b.wg.Wait()
	stop()
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
