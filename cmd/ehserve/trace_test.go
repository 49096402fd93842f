package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ehmodel/internal/experiments"
	"ehmodel/internal/obsv"
	"ehmodel/internal/sweep"
)

// fastFigureServer stubs generation so trace-shape tests don't simulate.
func fastFigureServer(t *testing.T) *server {
	s := testServer(t)
	s.generate = func(ctx context.Context, which string, quick bool) ([]*experiments.Figure, []experiments.Failure) {
		return []*experiments.Figure{{ID: "fig" + which, Title: "stub"}}, nil
	}
	return s
}

// spanNames flattens a span tree document into name → nodes.
func spanNames(t *testing.T, body []byte) map[string][]*obsv.SpanNode {
	t.Helper()
	var doc struct {
		Tree []*obsv.SpanNode `json:"tree"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("span tree: %v\n%s", err, body)
	}
	out := map[string][]*obsv.SpanNode{}
	var walk func(ns []*obsv.SpanNode)
	walk = func(ns []*obsv.SpanNode) {
		for _, n := range ns {
			out[n.Name] = append(out[n.Name], n)
			walk(n.Children)
		}
	}
	walk(doc.Tree)
	return out
}

// TestTraceEndpoint: every request is traced; the span tree is
// retrievable by the X-EH-Trace ID, the cold request shows generation
// and render, and the warm request shows a cache-hit lookup and nothing
// simulated.
func TestTraceEndpoint(t *testing.T) {
	h := fastFigureServer(t).handler()

	r1 := get(t, h, "/v1/figure?id=3")
	if r1.Code != http.StatusOK {
		t.Fatalf("figure: %d", r1.Code)
	}
	id1 := r1.Header().Get(traceHeader)
	if id1 == "" {
		t.Fatal("no trace ID on the response")
	}
	t1 := get(t, h, "/v1/trace/"+id1)
	if t1.Code != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", t1.Code, t1.Body.String())
	}
	cold := spanNames(t, t1.Body.Bytes())
	for _, name := range []string{"request", "request.parse", "cache.lookup", "generate", "render"} {
		if len(cold[name]) == 0 {
			t.Errorf("cold trace missing %q span", name)
		}
	}
	if got := cold["cache.lookup"][0].Attrs["outcome"]; got != "miss" {
		t.Fatalf("cold lookup outcome %q", got)
	}

	r2 := get(t, h, "/v1/figure?id=3")
	if got := r2.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("second request %s = %q", cacheHeader, got)
	}
	id2 := r2.Header().Get(traceHeader)
	if id2 == "" || id2 == id1 {
		t.Fatalf("second trace ID %q", id2)
	}
	t2 := get(t, h, "/v1/trace/"+id2)
	warm := spanNames(t, t2.Body.Bytes())
	if got := warm["cache.lookup"][0].Attrs["outcome"]; got != "hit" {
		t.Fatalf("warm lookup outcome %q", got)
	}
	if len(warm["generate"]) != 0 || len(warm["cell"]) != 0 || len(warm["device.run"]) != 0 {
		t.Fatal("warm request shows simulation spans")
	}

	// Chrome export of the same trace is valid trace_event JSON.
	tc := get(t, h, "/v1/trace/"+id1+"?format=chrome")
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tc.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export empty")
	}

	// Error cases: bad and unknown IDs.
	if rec := get(t, h, "/v1/trace/nothex"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id: %d", rec.Code)
	}
	if rec := get(t, h, "/v1/trace/"+obsv.NewTraceID().String()); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", rec.Code)
	}
}

// TestTraceHeaderInbound: a caller-supplied X-EH-Trace names the trace.
func TestTraceHeaderInbound(t *testing.T) {
	h := fastFigureServer(t).handler()
	want := obsv.NewTraceID().String()
	req := httptest.NewRequest("GET", "/v1/model?tau_b=10", nil)
	req.Header.Set(traceHeader, want)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(traceHeader); got != want {
		t.Fatalf("echoed trace %q, want %q", got, want)
	}
	if tr := get(t, h, "/v1/trace/"+want); tr.Code != http.StatusOK {
		t.Fatalf("named trace not retrievable: %d", tr.Code)
	}
}

// TestTracingDisabled: with no trace store the endpoints degrade
// gracefully and responses carry no trace header.
func TestTracingDisabled(t *testing.T) {
	s := fastFigureServer(t)
	s.traces = nil
	h := s.handler()
	rec := get(t, h, "/v1/figure?id=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("figure with tracing off: %d", rec.Code)
	}
	if got := rec.Header().Get(traceHeader); got != "" {
		t.Fatalf("trace header %q with tracing off", got)
	}
	if tr := get(t, h, "/v1/trace/"+obsv.NewTraceID().String()); tr.Code != http.StatusNotFound {
		t.Fatalf("trace endpoint with tracing off: %d", tr.Code)
	}
}

// TestProvenanceEnvelope: ?provenance=1 wraps the figure in an envelope
// without perturbing the cached bytes, and a warm request reports zero
// computed cells.
func TestProvenanceEnvelope(t *testing.T) {
	h := fastFigureServer(t).handler()

	p1 := get(t, h, "/v1/figure?id=3&provenance=1")
	if p1.Code != http.StatusOK {
		t.Fatalf("first: %d %s", p1.Code, p1.Body.String())
	}
	var env1 provEnvelope
	if err := json.Unmarshal(p1.Body.Bytes(), &env1); err != nil {
		t.Fatal(err)
	}
	if env1.Provenance.Cache != "miss" || env1.Provenance.Trace == "" {
		t.Fatalf("first provenance: %+v", env1.Provenance)
	}

	// The plain request must serve the exact cached figure — the
	// envelope is per-request dressing, never stored. (Compare compacted:
	// re-indenting inside the envelope moves whitespace only.)
	plain := get(t, h, "/v1/figure?id=3")
	if got := plain.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("plain after provenance: %s = %q", cacheHeader, got)
	}
	var pc, ec bytes.Buffer
	if err := json.Compact(&pc, plain.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&ec, env1.Figure); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pc.Bytes(), ec.Bytes()) {
		t.Fatal("cached figure differs from the envelope's figure field")
	}

	p2 := get(t, h, "/v1/figure?id=3&provenance=1")
	var env2 provEnvelope
	if err := json.Unmarshal(p2.Body.Bytes(), &env2); err != nil {
		t.Fatal(err)
	}
	if env2.Provenance.Cache != "hit" {
		t.Fatalf("warm provenance cache %q", env2.Provenance.Cache)
	}
	if env2.Provenance.ComputedCells != 0 || len(env2.Provenance.Cells) != 0 {
		t.Fatalf("warm provenance computed cells: %+v", env2.Provenance)
	}
	if !bytes.Equal([]byte(env1.Figure), []byte(env2.Figure)) {
		t.Fatal("figure bytes changed between provenance requests")
	}

	if rec := get(t, h, "/v1/figure?id=3&provenance=maybe"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad provenance param: %d", rec.Code)
	}
}

// TestProvLogOnlyWhenRead: a figure request collects cell provenance
// only for a reader — ?provenance=1 or a live /v1/events subscriber.
// Tracing alone collects none: the trace takes its cell data from the
// executor's cell spans.
func TestProvLogOnlyWhenRead(t *testing.T) {
	s := testServer(t)
	sawLog := false
	s.generate = func(ctx context.Context, which string, quick bool) ([]*experiments.Figure, []experiments.Failure) {
		sawLog = sweep.ProvFrom(ctx) != nil
		return []*experiments.Figure{{ID: "fig" + which, Title: "stub"}}, nil
	}
	h := s.handler()

	traced := get(t, h, "/v1/figure?id=3")
	if traced.Code != http.StatusOK || traced.Header().Get(traceHeader) == "" {
		t.Fatalf("traced figure: %d, trace %q", traced.Code, traced.Header().Get(traceHeader))
	}
	if sawLog {
		t.Error("a traced request with no provenance reader collected a provenance log")
	}

	// A different figure, so the request misses the byte cache.
	if rec := get(t, h, "/v1/figure?id=4&provenance=1"); rec.Code != http.StatusOK {
		t.Fatalf("provenance figure: %d", rec.Code)
	}
	if !sawLog {
		t.Error("?provenance=1 generated without a provenance log")
	}
}

// TestSeriesEndpoint: sampled intervals report per-interval deltas.
func TestSeriesEndpoint(t *testing.T) {
	s := fastFigureServer(t)
	h := s.handler()
	now := time.Now()
	s.sample(now)

	get(t, h, "/v1/model?tau_b=10")
	get(t, h, "/v1/model?tau_b=20")
	s.sample(now.Add(10 * time.Second))

	rec := get(t, h, "/v1/metrics/series")
	if rec.Code != http.StatusOK {
		t.Fatalf("%d", rec.Code)
	}
	var resp seriesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Window != obsv.DefaultSeriesWindow {
		t.Fatalf("window %d", resp.Window)
	}
	if len(resp.Samples) != 2 {
		t.Fatalf("%d samples", len(resp.Samples))
	}
	last := resp.Samples[1]
	if last.Requests != 2 {
		t.Fatalf("interval requests %d, want 2", last.Requests)
	}
	if last.DurMS != 10_000 {
		t.Fatalf("interval duration %d ms", last.DurMS)
	}
	if last.Traces != 2 {
		t.Fatalf("interval traces %d", last.Traces)
	}
}

// TestEventsStream: a subscriber sees the request completion event for
// a figure request, with its trace ID attached.
func TestEventsStream(t *testing.T) {
	s := fastFigureServer(t)
	srv := httptest.NewServer(s.handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	// First frame is the connection comment.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		t.Fatalf("no hello frame: %q", sc.Text())
	}

	// Wait for the subscription to register before the request fires.
	for deadline := time.Now().Add(5 * time.Second); !s.hub.active(); {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	fr, err := http.Get(srv.URL + "/v1/figure?id=3")
	if err != nil {
		t.Fatal(err)
	}
	fr.Body.Close()
	wantTrace := fr.Header.Get(traceHeader)

	var ev requestEvent
	deadline := time.AfterFunc(10*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "request" && ev.Path == "/v1/figure" {
			break
		}
	}
	if ev.Path != "/v1/figure" || ev.Status != http.StatusOK || ev.Trace != wantTrace {
		t.Fatalf("request event %+v (want trace %s)", ev, wantTrace)
	}
}

// TestSnapshotMetricsClones: the exported snapshot must not share the
// ErrorClasses map with the live metrics (the /metrics race fix).
func TestSnapshotMetricsClones(t *testing.T) {
	s := testServer(t)
	s.mu.Lock()
	s.metrics.AddErrorClass("deadline", 1)
	s.mu.Unlock()
	snap := s.snapshotMetrics()
	s.mu.Lock()
	s.metrics.AddErrorClass("deadline", 9)
	s.mu.Unlock()
	if snap.ErrorClasses["deadline"] != 1 {
		t.Fatalf("snapshot shares the live map: %v", snap.ErrorClasses)
	}
}

// TestDrainSummary: the shutdown line reports requests, spans and the
// store hit rate.
func TestDrainSummary(t *testing.T) {
	s := testServer(t)
	h := s.handler()
	get(t, h, "/v1/model?tau_b=10")
	line := s.drainSummary()
	for _, want := range []string{"requests", "traces", "spans", "store hit rate"} {
		if !strings.Contains(line, want) {
			t.Fatalf("summary %q missing %q", line, want)
		}
	}
}
