package main

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same data.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 7.7, 4.4}, 1.675, 3.75, 6.875},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2.5, 9, 4, 4, 1, 7, 3}, 2.5, 4, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); math.Abs(m-c.m) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.m)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p, v   float64
		beyond int
	}{
		{20, 50, 10, 10},
		{300, 90, 270, 30},
		{30000, 99.9, 29970, 30},
	}
	for _, c := range cases {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		p, v, beyond := tailPercentile(s)
		if p != c.p || v != c.v || beyond != c.beyond {
			t.Errorf("n=%d: p%g = %v with %d beyond, want p%g = %v with %d beyond", c.n, p, v, beyond, c.p, c.v, c.beyond)
		}
	}
}

func TestSelfTimeSubtractsUnionOfParallelChildren(t *testing.T) {
	sp := []span{
		{ID: 1, Name: "generate", Start: 0, End: 100},
		// Two workers' cells overlap; the third runs past the parent's end.
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "cell", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "cell", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "device.run", Start: 15, End: 35},
	}
	self := selfTimes(sp)
	want := map[uint64]int64{1: 40, 2: 10, 3: 30, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
}

func TestUnderfilledCountsStragglerTime(t *testing.T) {
	ivs := []interval{{0, 10}, {0, 5}, {5, 10}, {12, 20}}
	// Two workers: both busy until 10 (a back-to-back handover at 5 is
	// not a gap), none busy 10-12, one busy 12-20.
	if got := underfilled(ivs, 2, 0, 20); got != 8 {
		t.Fatalf("underfilled = %d, want 8", got)
	}
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 40 * time.Millisecond
	arr := openLoop(context.Background(), 1000, 20, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	}, nil)
	for i, a := range arr {
		if a.due != int64(i)*int64(time.Millisecond) {
			t.Fatalf("request %d due at %d ns, want %d", i, a.due, i*int(time.Millisecond))
		}
		if a.late() < 0 || a.latency() < 0 {
			t.Fatalf("request %d: late %d, latency %d", i, a.late(), a.latency())
		}
	}
	// Request 1 is released about 1 ms in and waits for the stalled
	// request 0 on the only connection: its latency covers that wait.
	if got := time.Duration(arr[1].latency()); got < stall/2 {
		t.Errorf("request 1 latency %v, want most of the %v stall", got, stall)
	}
	if arr[1].done < arr[0].done {
		t.Errorf("request 1 completed before the stalled request 0")
	}
	if last := arr[len(arr)-1]; time.Duration(last.latency()) > stall {
		t.Errorf("last request latency %v: the backlog should have drained", time.Duration(last.latency()))
	}
}
