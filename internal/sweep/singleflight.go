package sweep

import (
	"context"
	"fmt"
	"sync"
)

// Group collapses concurrent calls that share a key: the first arrival
// (the leader) runs fn, later arrivals (followers) block until it
// finishes and share its result. A hand-rolled singleflight — the repo
// carries no external dependencies. The executor keys it by cell
// content, ehserve by figure request.
//
// No deadlock is possible under runner's bounded workers: a follower
// only ever waits on a leader that is already running in another worker
// slot, so the leader's completion is never queued behind its
// followers.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do runs fn for key unless an identical call is already in flight, in
// which case it waits for that call's result. shared reports whether
// this caller was a follower. A follower whose context dies stops
// waiting and returns the context's cause; the leader's run is
// unaffected (its own interrupt wiring handles cancellation). The key
// is forgotten before the followers are released, so a failed flight's
// error reaches only the callers that waited on it: the next Do runs fn
// again. A panicking fn fails the flight too: its followers get an error
// naming the panic, and the panic continues in the leader's goroutine.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*call[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.v, true, c.err
		case <-ctx.Done():
			return v, true, context.Cause(ctx)
		}
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	returned := false
	defer func() {
		var p any
		if !returned {
			// fn panicked, or called runtime.Goexit (p is then nil).
			p = recover()
			c.err = fmt.Errorf("sweep: the call this one waited on panicked: %v", p)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		if p != nil {
			panic(p)
		}
	}()
	c.v, c.err = fn()
	returned = true
	return c.v, false, c.err
}
