package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Host-speed reference. The calibration VM's speed drifts by tens of
// percent within minutes (a fixed single-threaded simulation pass
// measured 36 ms per simulated Mcycle in one minute and 52 ms four
// minutes later), far more than any regression bound can absorb. Every
// timed operation is therefore paired with a tick of fixed reference
// work measured just before it, and the gated metrics report the
// operation's time scaled to the tick's nominal length: host drift moves
// both and cancels, while a change to the repository moves only the
// operation. The tick is benchmark code over the standard library,
// identical on both sides of any comparison. Raw times are kept as the
// _raw info lines.
//
// The simulator stack does two kinds of work, and the host's slowdowns
// hit them differently: interpreter-like integer work (the device
// engines), and allocation, reflection and garbage collection (result
// encoding, store decoding, figure assembly). So a tick is a walk of
// read-modify-writes over a cache-resident array, optionally followed by
// JSON decoding of a fixed document, and each workload is scaled by the
// tick that matches its work. In a five-minute probe on the calibration
// VM whose raw 15-second medians spread 21-27% (interquartile range over
// median), sim-bench scaled by the walk spread 8% and by the decode 23%;
// figs-warm's memory pass scaled by the walk spread 14% and by the
// walk plus decode 8-10%.

// tickKind selects a workload's reference work.
type tickKind struct {
	name    string  // the info line reporting the tick's median
	decode  bool    // add the JSON decodes to the walk
	nominal float64 // the tick's length on the calibration machine at its usual speed, ms
}

var (
	// walkTick matches the sim workloads: the device engines only.
	walkTick = tickKind{name: "host_tick_walk_ms", nominal: 6.5}
	// fullTick matches the figure and serve set-up work: simulation plus
	// result encoding, storage and figure assembly.
	fullTick = tickKind{name: "host_tick_full_ms", decode: true, nominal: 13}
)

// refMu guards the reference work's state: refBuf, the walk's 1 MiB
// working set, and refSink, which keeps results live.
var (
	refMu   sync.Mutex
	refBuf  [1 << 18]uint32
	refSink float64
	refDoc  = referenceDoc()
)

// refRecord is the decoded shape of the tick's JSON document, about the
// size and mix of a stored simulation result.
type refRecord struct {
	Name    string            `json:"name"`
	Samples []float64         `json:"samples"`
	Periods []refPeriod       `json:"periods"`
	Counts  map[string]uint64 `json:"counts"`
}

type refPeriod struct {
	Cycles    uint64   `json:"cycles"`
	Energy    float64  `json:"energy"`
	Intervals []uint64 `json:"intervals"`
}

// referenceDoc builds the fixed JSON document the tick decodes.
func referenceDoc() []byte {
	rec := refRecord{Name: "reference", Counts: map[string]uint64{}}
	for i := 0; i < 1000; i++ {
		rec.Samples = append(rec.Samples, float64(i)/7)
	}
	for i := 0; i < 200; i++ {
		rec.Periods = append(rec.Periods, refPeriod{Cycles: uint64(i) * 977, Energy: float64(i) / 3, Intervals: []uint64{uint64(i), uint64(2 * i), uint64(3 * i)}})
	}
	for i := 0; i < 50; i++ {
		rec.Counts[fmt.Sprintf("counter-%d", i)] = uint64(i)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		panic(err) // a fixed, finite document always encodes
	}
	return b
}

// run does one tick of reference work — a 2M-step xorshift walk over
// refBuf, then for decode ticks eight decodes of refDoc — and returns its
// duration in ms.
func (k tickKind) run() float64 {
	refMu.Lock()
	defer refMu.Unlock()
	t := time.Now()
	x := uint32(2463534242)
	var acc uint32
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & (uint32(len(refBuf)) - 1)
		acc += refBuf[j] ^ x
		refBuf[j] = acc
	}
	refSink += float64(acc)
	for i := 0; k.decode && i < 8; i++ {
		var rec refRecord
		if err := json.Unmarshal(refDoc, &rec); err != nil {
			panic(err) // refDoc is referenceDoc's own output
		}
		refSink += rec.Samples[1]
	}
	return ms(time.Since(t))
}

// opSamples holds a workload's timed operations, raw and scaled by the
// reference measured with each (a tick, or for the serve workloads the
// ping median).
type opSamples struct{ raw, scaled, refs []float64 }

// add records value v measured alongside reference ref, whose nominal
// length is nominal.
func (o *opSamples) add(v, ref, nominal float64) {
	o.raw = append(o.raw, v)
	o.scaled = append(o.scaled, v*nominal/ref)
	o.refs = append(o.refs, ref)
}

// setupPhase runs the workload's set-up e.setupReps times, each preceded
// by a tick of kind k, and records the median scaled duration as
// setup_s. Each repetition starts afresh and replaces the previous
// one's state.
func setupPhase(e *env, r *result, k tickKind, fn func() error) error {
	var o opSamples
	for rep := 0; rep < e.setupReps; rep++ {
		tick := k.run()
		t := time.Now()
		if err := fn(); err != nil {
			return err
		}
		o.add(time.Since(t).Seconds(), tick, k.nominal)
	}
	r.set("setup_s", "s", median(o.scaled), len(o.scaled))
	r.info("setup_s_raw", "s", median(o.raw), len(o.raw))
	return nil
}

// timedLoop calls op, each call preceded by a tick of kind k, until e.run
// has elapsed and at least e.minOps calls were made, or until ctx ends or
// op returns an error. op returns its measured value.
func timedLoop(ctx context.Context, e *env, k tickKind, op func() (float64, error)) (opSamples, error) {
	var o opSamples
	start := time.Now()
	for i := 0; i < e.minOps || time.Since(start) < e.run; i++ {
		if err := ctx.Err(); err != nil {
			return o, err
		}
		tick := k.run()
		v, err := op()
		if err != nil {
			return o, err
		}
		o.add(v, tick, k.nominal)
	}
	return o, nil
}

// setOps records the gated op statistic (the scaled median) and, as
// info, the raw median and 90th percentile and the reference's median.
func setOps(r *result, o opSamples, refName string) {
	p90, _ := percentile(sorted(o.raw), 90)
	r.set("op_p50_ms", "ms", median(o.scaled), len(o.scaled))
	r.info("op_p50_ms_raw", "ms", median(o.raw), len(o.raw))
	r.info("op_p90_ms_raw", "ms", p90, len(o.raw))
	r.info(refName, "ms", median(o.refs), len(o.refs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
