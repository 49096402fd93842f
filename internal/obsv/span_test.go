package obsv

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestTraceIDParse(t *testing.T) {
	id := NewTraceID()
	if id == (TraceID{}) {
		t.Fatal("zero trace ID generated")
	}
	back, ok := ParseTraceID(id.String())
	if !ok || back != id {
		t.Fatalf("round trip: %v %v", back, ok)
	}
	for _, bad := range []string{"", "abc", "zzzzzzzzzzzzzzzz", "0000000000000000", id.String() + "00"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
	b, err := id.MarshalText()
	if err != nil || string(b) != id.String() {
		t.Fatalf("MarshalText: %q %v", b, err)
	}
}

// TestStartSpanDisabled: with no trace in the context, StartSpan returns
// the context unchanged and a nil span whose methods are all no-ops —
// and the whole disabled round trip allocates nothing.
func TestStartSpanDisabled(t *testing.T) {
	ctx := context.Background()
	sctx, sp := StartSpan(ctx, "x")
	if sctx != ctx {
		t.Fatal("disabled StartSpan rewrote the context")
	}
	if sp != nil {
		t.Fatal("disabled StartSpan returned a live span")
	}
	// Every nil-receiver method must be callable.
	sp.SetAttr("k", "v")
	sp.SetUint("n", 1)
	sp.SetBool("b", true)
	sp.Finish()
	if TraceFrom(ctx) != nil {
		t.Fatal("TraceFrom invented a trace")
	}
	if id := AddSpan(ctx, "x", time.Now(), time.Now()); id != 0 {
		t.Fatalf("disabled AddSpan returned span %d", id)
	}

	allocs := testing.AllocsPerRun(100, func() {
		c2, s2 := StartSpan(ctx, "x")
		s2.SetAttr("k", "v")
		s2.SetUint("n", 1)
		s2.Finish()
		_ = c2
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f per op, want 0", allocs)
	}
}

// TestSpanTree: spans nest under their context parents, retroactive
// spans land under the current span, and the rendered tree reflects it.
func TestSpanTree(t *testing.T) {
	tr := NewTrace(NewTraceID(), 0)
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}

	ctx, root := StartSpan(ctx, "request")
	root.SetAttr("path", "/v1/figure")
	cctx, cell := StartSpan(ctx, "cell")
	_, dev := StartSpan(cctx, "device.run")
	dev.SetUint("periods", 3)
	dev.Finish()
	cell.Finish()
	AddSpan(ctx, "render", time.Now(), time.Now(), Attr{Key: "figure", Val: "fig5"})
	root.Finish()

	td := TraceFrom(ctx).Snapshot()
	if len(td.Spans) != 4 {
		t.Fatalf("%d spans recorded", len(td.Spans))
	}
	roots := td.Tree()
	if len(roots) != 1 || roots[0].Name != "request" {
		t.Fatalf("tree roots: %+v", roots)
	}
	req := roots[0]
	if req.Attrs["path"] != "/v1/figure" {
		t.Fatalf("root attrs %v", req.Attrs)
	}
	if len(req.Children) != 2 {
		t.Fatalf("root has %d children, want cell+render", len(req.Children))
	}
	var cellNode *SpanNode
	for _, c := range req.Children {
		if c.Name == "cell" {
			cellNode = c
		}
	}
	if cellNode == nil || len(cellNode.Children) != 1 || cellNode.Children[0].Name != "device.run" {
		t.Fatalf("cell subtree wrong: %+v", cellNode)
	}
	if cellNode.Children[0].Attrs["periods"] != "3" {
		t.Fatalf("device.run attrs %v", cellNode.Children[0].Attrs)
	}

	var buf bytes.Buffer
	if err := td.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceID string      `json:"trace_id"`
		Spans   int         `json:"spans"`
		Tree    []*SpanNode `json:"tree"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != tr.ID.String() || doc.Spans != 4 || len(doc.Tree) != 1 {
		t.Fatalf("tree doc: %+v", doc)
	}
}

// TestTraceSpanLimit: past the limit, spans are counted as dropped
// instead of growing the trace.
func TestTraceSpanLimit(t *testing.T) {
	tr := NewTrace(NewTraceID(), 2)
	for i := 0; i < 5; i++ {
		tr.AddSpan("s", 0, time.Now(), time.Now())
	}
	td := tr.Snapshot()
	if len(td.Spans) != 2 || td.Dropped != 3 {
		t.Fatalf("spans %d dropped %d", len(td.Spans), td.Dropped)
	}
}

// TestSpanCounter: lifecycle events fold into span attributes.
func TestSpanCounter(t *testing.T) {
	tr := NewTrace(NewTraceID(), 0)
	ctx := ContextWithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "device.run")
	c := NewSpanCounter(sp)
	c.Event(Event{Type: EvRunBegin, Arg: 1})
	c.Event(Event{Type: EvPowerOn})
	c.Event(Event{Type: EvPowerOn})
	c.Event(Event{Type: EvCheckpointCommit})
	c.Event(Event{Type: EvBrownOut})
	c.Event(Event{Type: EvFastForward, Arg: 40, Arg2: 3000})
	c.Event(Event{Type: EvRunEnd, Arg: 1, Cycles: 1234})
	c.Flush()
	sp.Finish()

	node := tr.Snapshot().Tree()[0]
	want := map[string]string{
		"engine":  "batched",
		"periods": "2", "backups": "1", "brown_outs": "1", "ff_periods": "40",
		"simcycles": "1234", "completed": "true",
	}
	for k, v := range want {
		if node.Attrs[k] != v {
			t.Errorf("attr %s = %q, want %q", k, node.Attrs[k], v)
		}
	}

	// The reference engine tags its run too.
	_, rsp := StartSpan(ctx, "device.run")
	rc := NewSpanCounter(rsp)
	rc.Event(Event{Type: EvRunBegin, Arg: 0})
	rc.Flush()
	rsp.Finish()
	if got := tr.Snapshot().Tree()[1].Attrs["engine"]; got != "reference" {
		t.Errorf("reference run engine attr = %q, want reference", got)
	}

	// A nil-span counter still counts without attributing anywhere.
	nc := NewSpanCounter(nil)
	nc.Event(Event{Type: EvPowerOn})
	nc.Flush()
}

// TestTraceStore: FIFO retention with eviction, replacement on a reused
// ID, and cumulative stats unaffected by eviction.
func TestTraceStore(t *testing.T) {
	st := NewTraceStore(2)
	ids := []TraceID{NewTraceID(), NewTraceID(), NewTraceID()}
	for i, id := range ids {
		td := &TraceData{ID: id, Spans: make([]Span, i+1)}
		st.Add(td)
	}
	if st.Len() != 2 {
		t.Fatalf("len %d", st.Len())
	}
	if _, ok := st.Get(ids[0]); ok {
		t.Fatal("oldest trace not evicted")
	}
	for _, id := range ids[1:] {
		if _, ok := st.Get(id); !ok {
			t.Fatalf("trace %s lost", id)
		}
	}
	// Re-adding an existing ID replaces without evicting others.
	st.Add(&TraceData{ID: ids[1], Spans: make([]Span, 9)})
	if st.Len() != 2 {
		t.Fatalf("replacement changed len to %d", st.Len())
	}
	if td, _ := st.Get(ids[1]); len(td.Spans) != 9 {
		t.Fatal("replacement did not take")
	}
	traces, spans := st.Stats()
	if traces != 4 || spans != 1+2+3+9 {
		t.Fatalf("stats %d traces %d spans", traces, spans)
	}
}

// TestWriteSpansChrome: the exported span timeline is valid Chrome
// trace_event JSON with one complete event per span.
func TestWriteSpansChrome(t *testing.T) {
	tr := NewTrace(NewTraceID(), 0)
	ctx := ContextWithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, "request")
	_, cell := StartSpan(ctx, "cell")
	cell.SetAttr("outcome", "miss")
	cell.Finish()
	root.Finish()

	var buf bytes.Buffer
	if err := WriteSpansChrome(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Args map[string]any  `json:"args"`
			Dur  json.RawMessage `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events for 2 spans", len(doc.TraceEvents))
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %s has phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "cell" {
			found = true
			if ev.Args["outcome"] != "miss" {
				t.Errorf("cell args %v", ev.Args)
			}
		}
	}
	if !found {
		t.Fatal("cell span missing from export")
	}
}
