package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples is a concurrency-safe list of float64 observations.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

// len returns how many observations were added.
func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// part returns a sorted copy of observations from through to-1 in the
// order they were added; to < 0 means through the last.
func (s *samples) part(from, to int) []float64 {
	s.mu.Lock()
	if to < 0 {
		to = len(s.xs)
	}
	out := append([]float64(nil), s.xs[from:to]...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func sinceUS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones a Python harness
// computes from the same values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const parts = 4
	m := n + 1
	q := func(i int) float64 {
		j := i * m / parts
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*parts)
		return (s[j-1]*(parts-delta) + s[j]*delta) / parts
	}
	return q(1), q(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending-sorted slice, with the number of samples ranked above it.
func percentile(s []float64, p float64) (v float64, beyond int) {
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	// The small offset keeps float rounding (99.9% of 30000 computes as
	// 29970.000000000004) from pushing the rank up by one.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// tailLadder is the sequence of percentiles tailPercentile climbs.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it, its value and that count — the
// tail statistic a sample of this size supports. Fewer than 20 samples
// support no percentile above the median; the median is returned.
func tailPercentile(s []float64) (p, v float64, beyond int) {
	p = tailLadder[0]
	v, beyond = percentile(s, p)
	for _, q := range tailLadder[1:] {
		qv, qb := percentile(s, q)
		if qb < 10 {
			break
		}
		p, v, beyond = q, qv, qb
	}
	return p, v, beyond
}

// interval is a half-open [Start, End) time range in nanoseconds.
type interval struct{ Start, End int64 }

// unionLen is the total length covered by ivs after clipping each to
// [lo, hi): overlapping intervals (parallel children) count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.Start, lo), min(iv.End, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.Start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.Start, iv.End
		} else if iv.End > curE {
			curE = iv.End
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals, keyed by span ID.
func selfTimes(sp []span) map[uint64]int64 {
	kids := make(map[uint64][]interval)
	for _, s := range sp {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(sp))
	for _, s := range sp {
		out[s.ID] = s.End - s.Start - unionLen(kids[s.ID], s.Start, s.End)
	}
	return out
}

// underfilled returns the time within [lo, hi) during which at least one
// but fewer than w of the intervals are active: workers idle while a
// straggler still runs.
func underfilled(ivs []interval, w int, lo, hi int64) int64 {
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, iv := range ivs {
		s, e := max(iv.Start, lo), min(iv.End, hi)
		if e > s {
			edges = append(edges, edge{s, 1}, edge{e, -1})
		}
	}
	// At equal times, ends sort before starts, so back-to-back cells on
	// one worker never count as two at once.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	var total int64
	active := 0
	for i, ed := range edges {
		if i > 0 && active > 0 && active < w {
			total += ed.at - edges[i-1].at
		}
		active += ed.delta
	}
	return total
}
