package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightGroupCollapse exercises the singleflight directly: N
// concurrent calls for one key yield one leader and N−1 followers
// sharing the leader's entry.
func TestFlightGroupCollapse(t *testing.T) {
	var g Group[Key, *Entry]
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	ent := &Entry{Result: nil}

	// The leader enters fn and blocks; every follower spawned after
	// `started` finds the in-flight call and waits on it.
	leaderOut := make(chan error, 1)
	go func() {
		e, shared, err := g.Do(context.Background(), key(1), func() (*Entry, error) {
			calls.Add(1)
			close(started)
			<-release
			return ent, nil
		})
		if e != ent || shared {
			err = fmt.Errorf("leader: ent=%p shared=%v", e, shared)
		}
		leaderOut <- err
	}()
	<-started

	const followers = 7
	type out struct {
		ent    *Entry
		shared bool
		err    error
	}
	outs := make(chan out, followers)
	for i := 0; i < followers; i++ {
		go func() {
			e, shared, err := g.Do(context.Background(), key(1), func() (*Entry, error) {
				calls.Add(1)
				return ent, nil
			})
			outs <- out{e, shared, err}
		}()
	}
	// Give the followers time to park on the flight, then release.
	waitForFlightWaiters(t, &g)
	close(release)

	if err := <-leaderOut; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < followers; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.ent != ent {
			t.Fatal("follower got a different entry")
		}
		if !o.shared {
			t.Fatal("a follower became a leader despite the in-flight call")
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d executions for 8 concurrent calls", got)
	}
}

// waitForFlightWaiters gives follower goroutines a moment to enter Do
// and park. The flight's presence is checkable; the parked waiters are
// not, so a short grace period follows.
func waitForFlightWaiters(t *testing.T, g *Group[Key, *Entry]) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		inFlight := len(g.m)
		g.mu.Unlock()
		if inFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never formed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

// TestFlightGroupFollowerCancellation: a follower whose context dies
// stops waiting without killing the leader.
func TestFlightGroupFollowerCancellation(t *testing.T) {
	var g Group[Key, *Entry]
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), key(2), func() (*Entry, error) {
			close(started)
			<-release
			return &Entry{}, nil
		})
		leaderDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := g.Do(ctx, key(2), func() (*Entry, error) {
		t.Error("canceled follower became a leader")
		return nil, nil
	})
	if !shared || err == nil {
		t.Fatalf("shared=%v err=%v, want canceled follower", shared, err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
}

// TestFlightGroupLeaderError: a failing leader's error reaches every
// follower of its flight, and only them — the next call for the key
// leads a new flight and runs fn again.
func TestFlightGroupLeaderError(t *testing.T) {
	var g Group[Key, *Entry]
	var calls atomic.Int32
	boom := errors.New("leader failed")
	started := make(chan struct{})
	release := make(chan struct{})
	leaderOut := make(chan error, 1)
	go func() {
		_, shared, err := g.Do(context.Background(), key(3), func() (*Entry, error) {
			calls.Add(1)
			close(started)
			<-release
			return nil, boom
		})
		if shared {
			err = fmt.Errorf("leader reported shared (err %v)", err)
		}
		leaderOut <- err
	}()
	<-started

	const followers = 4
	type out struct {
		shared bool
		err    error
	}
	outs := make(chan out, followers)
	for i := 0; i < followers; i++ {
		go func() {
			_, shared, err := g.Do(context.Background(), key(3), func() (*Entry, error) {
				calls.Add(1)
				return &Entry{}, nil
			})
			outs <- out{shared, err}
		}()
	}
	waitForFlightWaiters(t, &g)
	close(release)

	if err := <-leaderOut; err != boom {
		t.Fatalf("leader err %v, want %v", err, boom)
	}
	for i := 0; i < followers; i++ {
		if o := <-outs; !o.shared || o.err != boom {
			t.Fatalf("follower shared=%v err=%v, want the leader's error", o.shared, o.err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d executions for %d concurrent calls", got, followers+1)
	}

	ent := &Entry{}
	got, shared, err := g.Do(context.Background(), key(3), func() (*Entry, error) {
		calls.Add(1)
		return ent, nil
	})
	if got != ent || shared || err != nil || calls.Load() != 2 {
		t.Fatalf("after a failed flight: ent=%p shared=%v err=%v calls=%d, want a new leader",
			got, shared, err, calls.Load())
	}
}

// TestFlightGroupLeaderPanic: a leader whose fn panics still ends its
// flight. Its followers get an error naming the panic at once instead
// of waiting for their contexts to end, the panic continues in the
// leader's goroutine, the key is forgotten, and the next call for it
// leads a new flight and runs fn.
func TestFlightGroupLeaderPanic(t *testing.T) {
	var g Group[Key, *Entry]
	started := make(chan struct{})
	release := make(chan struct{})
	leaderOut := make(chan any, 1)
	go func() {
		defer func() { leaderOut <- recover() }()
		g.Do(context.Background(), key(4), func() (*Entry, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	// A follower still waiting at the deadline would report its
	// context's error, not the panic.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const followers = 4
	type out struct {
		shared bool
		err    error
	}
	outs := make(chan out, followers)
	for i := 0; i < followers; i++ {
		go func() {
			_, shared, err := g.Do(ctx, key(4), func() (*Entry, error) {
				return &Entry{}, nil
			})
			outs <- out{shared, err}
		}()
	}
	waitForFlightWaiters(t, &g)
	close(release)

	if p := <-leaderOut; p != "boom" {
		t.Fatalf("leader recovered %v, want the panic boom", p)
	}
	for i := 0; i < followers; i++ {
		if o := <-outs; !o.shared || o.err == nil || !strings.Contains(o.err.Error(), "panicked: boom") {
			t.Fatalf("follower shared=%v err=%v, want an error naming the leader's panic", o.shared, o.err)
		}
	}
	g.mu.Lock()
	inFlight := len(g.m)
	g.mu.Unlock()
	if inFlight != 0 {
		t.Fatalf("%d flights left after the leader panicked", inFlight)
	}

	var calls atomic.Int32
	ent := &Entry{}
	got, shared, err := g.Do(context.Background(), key(4), func() (*Entry, error) {
		calls.Add(1)
		return ent, nil
	})
	if got != ent || shared || err != nil || calls.Load() != 1 {
		t.Fatalf("after a panicked flight: ent=%p shared=%v err=%v calls=%d, want a new leader",
			got, shared, err, calls.Load())
	}
}
