package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestEventTypeNames(t *testing.T) {
	for ty := EvNone; ty < NumEventTypes; ty++ {
		if ty.String() == "" || strings.HasPrefix(ty.String(), "event-") {
			t.Errorf("event type %d has no name", ty)
		}
	}
	for r := TrigNone; r < NumTriggerReasons; r++ {
		if r.String() == "" || strings.HasPrefix(r.String(), "reason-") {
			t.Errorf("trigger reason %d has no name", r)
		}
	}
	if got := EventType(200).String(); got != "event-200" {
		t.Errorf("unknown event name = %q", got)
	}
}

func TestCombine(t *testing.T) {
	if Combine() != nil || Combine(nil, nil) != nil {
		t.Fatal("Combine of nothing must be nil")
	}
	a := &SliceSink{}
	if Combine(nil, a) != Tracer(a) {
		t.Fatal("Combine of one sink must be the sink itself")
	}
	b := &SliceSink{}
	m := Combine(a, b)
	m.Event(Event{Type: EvPowerOn})
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Fatalf("fan-out failed: %d/%d", len(a.Events), len(b.Events))
	}
}

func TestWithTid(t *testing.T) {
	s := &SliceSink{}
	WithTid(s, 7).Event(Event{Type: EvHalt})
	if s.Events[0].Tid != 7 {
		t.Fatalf("tid = %d, want 7", s.Events[0].Tid)
	}
	if WithTid(nil, 3) != nil {
		t.Fatal("WithTid(nil) must stay nil")
	}
}

func TestSliceSinkTypesFilter(t *testing.T) {
	s := &SliceSink{}
	s.Event(Event{Type: EvPowerOn})
	s.Event(Event{Type: EvBatchHorizon})
	s.Event(Event{Type: EvBrownOut})
	if got := s.Types(true); len(got) != 2 || got[0] != EvPowerOn || got[1] != EvBrownOut {
		t.Fatalf("filtered types = %v", got)
	}
	if got := s.Types(false); len(got) != 3 {
		t.Fatalf("unfiltered types = %v", got)
	}
}

func TestRingWrapAndSnapshot(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Event(Event{Type: EvPowerOn, Cycles: uint64(i)})
	}
	if r.Len() != 4 || r.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	snap := r.Snapshot()
	for i, e := range snap {
		if want := uint64(i + 2); e.Cycles != want {
			t.Fatalf("snapshot[%d].Cycles = %d, want %d", i, e.Cycles, want)
		}
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count != 6 || h.Sum != 1106 || h.Min != 0 || h.Max != 1000 {
		t.Fatalf("stats: %+v", h)
	}
	if got := h.Mean(); math.Abs(got-1106.0/6) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if h.Quantile(0) != 0 || h.Quantile(1.0) != 1000 {
		t.Fatalf("quantiles: p0=%d p100=%d", h.Quantile(0), h.Quantile(1.0))
	}
	var other Histogram
	other.Observe(5000)
	h.Merge(&other)
	if h.Count != 7 || h.Max != 5000 {
		t.Fatalf("merged: %+v", h)
	}
	var empty Histogram
	h.Merge(&empty)
	if h.Count != 7 {
		t.Fatal("merging empty changed count")
	}
}

func TestMetricsDerivation(t *testing.T) {
	var m Metrics
	feed := []Event{
		{Type: EvRunBegin},
		{Type: EvPowerOn, F: 0.5},
		{Type: EvRestore, Arg: 64, F: 1e-6},
		{Type: EvCheckpointBegin, Arg: 64},
		{Type: EvCheckpointCommit, Arg: 64, Arg2: 1000, F: 2e-6},
		{Type: EvBrownOut, Arg: 200, Arg2: 1500},
		{Type: EvPowerOn, F: 0.25},
		{Type: EvColdStart},
		{Type: EvCheckpointFail},
		{Type: EvTrigger, Arg: uint64(TrigWAR)},
		{Type: EvWARFlush, Arg: 17, Arg2: uint64(TrigWAR)},
		{Type: EvFaultBitFlips, Arg: 3},
		{Type: EvBatchHorizon, Arg: 16, Arg2: 16},
		{Type: EvBatchHorizon, Arg: 5, Arg2: 9},
		{Type: EvFastForward, Arg: 198, Arg2: 2975},
		{Type: EvHalt},
		{Type: EvRunEnd, Arg: 1},
	}
	for _, e := range feed {
		m.Event(e)
	}
	if m.Runs != 1 || m.CompletedRuns != 1 || m.Periods != 2 {
		t.Fatalf("run counts: %+v", m)
	}
	if m.Backups != 1 || m.BackupFail != 1 || m.Restores != 1 || m.ColdStarts != 1 {
		t.Fatalf("ckpt counts: %+v", m)
	}
	if m.CommittedCycles != 1000 || m.DeadCycles != 200 {
		t.Fatalf("cycle split: committed=%d dead=%d", m.CommittedCycles, m.DeadCycles)
	}
	if m.Triggers[TrigWAR] != 1 || m.WARFlushes != 1 || m.BufferHighWater != 17 {
		t.Fatalf("war: %+v", m)
	}
	if m.FaultBitFlips != 3 || m.Halts != 1 {
		t.Fatalf("faults: %+v", m)
	}
	// The budget (Arg), not the strategy horizon (Arg2), is observed.
	if b := m.BatchBudget; m.BatchedHorizons != 2 || b.Count != 2 || b.Sum != 21 || b.Min != 5 || b.Max != 16 {
		t.Fatalf("batch budgets: horizons=%d %+v", m.BatchedHorizons, b)
	}

	// Replayed periods count by EvFastForward's Arg, and only there:
	// their own power-on events are what Periods counts.
	if m.FastForwardPeriods != 198 || m.Periods != 2 {
		t.Fatalf("fast-forward: ff=%d periods=%d", m.FastForwardPeriods, m.Periods)
	}

	var m2 Metrics
	m2.Event(Event{Type: EvWARFlush, Arg: 5, Arg2: uint64(TrigWatchdog)})
	m2.Event(Event{Type: EvBatchHorizon, Arg: 1 << 14})
	m2.Event(Event{Type: EvFastForward, Arg: 2})
	m2.AddErrorClass("deadline", 2)
	m.AddErrorClass("deadline", 1)
	m.Merge(&m2)
	if m.WARFlushes != 2 || m.BufferHighWater != 17 {
		t.Fatalf("merged war: %+v", m)
	}
	if m.ErrorClasses["deadline"] != 3 {
		t.Fatalf("error classes: %v", m.ErrorClasses)
	}
	if b := m.BatchBudget; m.BatchedHorizons != 3 || b.Count != 3 || b.Max != 1<<14 || b.Buckets[15] != 1 {
		t.Fatalf("merged batch budgets: horizons=%d %+v", m.BatchedHorizons, b)
	}
	if m.FastForwardPeriods != 200 {
		t.Fatalf("merged fast-forward periods = %d, want 200", m.FastForwardPeriods)
	}
}

func TestMetricsExport(t *testing.T) {
	var m Metrics
	m.Event(Event{Type: EvPowerOn, F: 0.5})
	m.Event(Event{Type: EvTrigger, Arg: uint64(TrigTimer)})
	m.Event(Event{Type: EvBatchHorizon, Arg: 16})
	m.Event(Event{Type: EvFastForward, Arg: 7, Arg2: 100})
	m.AddErrorClass("panic", 4)

	var csv bytes.Buffer
	if err := m.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.HasPrefix(out, "metric,value\n") {
		t.Fatalf("missing CSV header: %q", out[:40])
	}
	for _, want := range []string{"periods,1", "trigger_timer,1", "error_panic,4", "charge_seconds_mean,0.5",
		"batched_horizons,1", "batch_budget_cycles_count,1", "batch_budget_cycles_p50,16",
		"fastforward_periods,7"} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}

	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	trig, ok := doc["triggers"].(map[string]any)
	if !ok || trig["timer"] != float64(1) {
		t.Fatalf("triggers export: %v", doc["triggers"])
	}
	bb, ok := doc["batch_budget_cycles"].(map[string]any)
	if !ok || bb["count"] != float64(1) || bb["max"] != float64(16) {
		t.Fatalf("batch budget export: %v", doc["batch_budget_cycles"])
	}
	if doc["fastforward_periods"] != float64(7) {
		t.Fatalf("fast-forward export: %v", doc["fastforward_periods"])
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	a, b := c.Tracer(), c.Tracer()
	a.Event(Event{Type: EvPowerOn, F: 1})
	b.Event(Event{Type: EvPowerOn, F: 2})
	b.Event(Event{Type: EvBrownOut, Arg: 10, Arg2: 20})
	agg := c.Aggregate()
	if agg.Periods != 2 || agg.BrownOuts != 1 || agg.DeadCycles != 10 {
		t.Fatalf("aggregate: %+v", agg)
	}
}

func TestChromeSinkValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	events := []Event{
		{Type: EvRunBegin, Arg: 1},
		{Type: EvPowerOn, Period: 0, TimeS: 1.0, F: 0.5},
		{Type: EvCheckpointBegin, Period: 0, TimeS: 1.1, Arg: 64},
		{Type: EvCheckpointCommit, Period: 0, TimeS: 1.2, Arg: 64, Arg2: 500},
		{Type: EvBrownOut, Period: 0, TimeS: 1.3, Arg: 100, Arg2: 900},
		{Type: EvPowerOn, Period: 1, TimeS: 2.0, F: 0.7},
		{Type: EvCheckpointBegin, Period: 1, TimeS: 2.1, Arg: 64},
		// run dies mid-checkpoint: sink must still balance the spans
		{Type: EvRunEnd},
	}
	for _, e := range events {
		s.Event(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int64   `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	depth := map[string]int{}
	var sawCharge bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			depth[ev.Name]++
		case "E":
			depth[ev.Name]--
			if depth[ev.Name] < 0 {
				t.Fatalf("unbalanced E for %q", ev.Name)
			}
		case "X":
			if ev.Name == "charge" {
				sawCharge = true
				if ev.Dur <= 0 {
					t.Fatalf("charge span without duration: %+v", ev)
				}
			}
		}
	}
	for name, d := range depth {
		if d != 0 {
			t.Fatalf("span %q left open (depth %d)", name, d)
		}
	}
	if !sawCharge {
		t.Fatal("no charge X event emitted")
	}
}

func TestTextSinkAndLogger(t *testing.T) {
	var buf bytes.Buffer
	s := NewTextSink(&buf)
	s.Event(Event{Type: EvCheckpointCommit, Period: 2, Cycles: 999, TimeS: 0.5, Arg: 64, Arg2: 1000, F: 1e-6})
	s.Event(Event{Type: EvWARFlush, Arg: 9, Arg2: uint64(TrigWAR)})
	out := buf.String()
	for _, want := range []string{"ev.checkpoint-commit", "period=2", "cyc=999", "bytes=64", "tau_b=1000", "ev.war-flush", "occupancy=9", "reason=war"} {
		if !strings.Contains(out, want) {
			t.Errorf("text sink missing %q:\n%s", want, out)
		}
	}

	var lbuf bytes.Buffer
	l := NewLogger(&lbuf)
	l.Prefix = "audit"
	l.Line("verdict", Field{"case", "hibernus/counter"}, Field{"outcome", "ok"}, Field{"msg", "has space"})
	got := lbuf.String()
	if got != "audit verdict case=hibernus/counter outcome=ok msg=\"has space\"\n" {
		t.Fatalf("logfmt line = %q", got)
	}
}

func TestMetricsWCECCounters(t *testing.T) {
	var m Metrics
	feed := []Event{
		{Type: EvWCECRegion, Arg: WCECArgCertified, Arg2: 0},
		{Type: EvWCECRegion, Arg: WCECArgCertified, Arg2: 4},
		{Type: EvWCECRegion, Arg: WCECArgLivelock, Arg2: 9},
		{Type: EvWCECRegion, Arg: WCECArgUnknown, Arg2: 11},
	}
	for _, e := range feed {
		m.Event(e)
	}
	if m.WCECCertified != 2 || m.WCECLivelock != 1 || m.WCECUnknown != 1 {
		t.Fatalf("verdict counters: %+v", m)
	}

	var m2 Metrics
	m2.Event(Event{Type: EvWCECRegion, Arg: WCECArgLivelock})
	m.Merge(&m2)
	if m.WCECLivelock != 2 {
		t.Fatalf("merged livelock count: %d", m.WCECLivelock)
	}

	var csv bytes.Buffer
	if err := m.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"wcec_certified,2", "wcec_livelock,2", "wcec_unknown,1"} {
		if !strings.Contains(csv.String(), row) {
			t.Errorf("CSV lacks %q:\n%s", row, csv.String())
		}
	}

	// Runs with no verifier events keep the previous CSV shape: the
	// wcec rows only appear when a verdict was recorded.
	var empty Metrics
	var csv2 bytes.Buffer
	if err := empty.WriteCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(csv2.String(), "wcec_") {
		t.Errorf("empty metrics should omit wcec rows:\n%s", csv2.String())
	}
}
