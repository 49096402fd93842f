package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ehmodel/internal/experiments"
	"ehmodel/internal/obsv"
	"ehmodel/internal/sweep"
)

func testServer() *server {
	return newServer(sweep.NewExecutor(sweep.NewMemStore(0)), time.Minute)
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestFigureResponseCached: the same figure query twice must yield
// byte-identical responses, the second answered from the response cache.
func TestFigureResponseCached(t *testing.T) {
	h := testServer().handler()
	r1 := get(t, h, "/v1/figure?id=3")
	if r1.Code != http.StatusOK {
		t.Fatalf("first: %d %s", r1.Code, r1.Body.String())
	}
	if got := r1.Header().Get(cacheHeader); got != "miss" {
		t.Fatalf("first %s = %q, want miss", cacheHeader, got)
	}
	r2 := get(t, h, "/v1/figure?id=3")
	if r2.Code != http.StatusOK {
		t.Fatalf("second: %d", r2.Code)
	}
	if got := r2.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("second %s = %q, want hit", cacheHeader, got)
	}
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Fatal("cached response differs from generated response")
	}
	var resp figureResponse
	if err := json.Unmarshal(r2.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Figures) != 1 || resp.Figures[0].ID != "fig3" {
		t.Fatalf("unexpected payload: %+v", resp)
	}
}

// TestFigureSingleflight: concurrent identical queries collapse onto a
// single generation; followers share the leader's bytes.
func TestFigureSingleflight(t *testing.T) {
	s := testServer()
	var calls atomic.Int32
	release := make(chan struct{})
	generate := s.generate
	s.generate = func(ctx context.Context, which string, quick bool) ([]*experiments.Figure, []experiments.Failure) {
		calls.Add(1)
		<-release
		return generate(ctx, which, quick)
	}
	h := s.handler()

	const n = 8
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = get(t, h, "/v1/figure?id=2")
		}(i)
	}
	// Let every request reach the flight before the leader runs: one
	// generation has started, so the flight has formed.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if calls.Load() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight never formed: %d calls", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // give followers time to enqueue
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d generations for %d identical concurrent requests", got, n)
	}
	miss, coalesced := 0, 0
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("request %d: body differs", i)
		}
		switch rec.Header().Get(cacheHeader) {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		case "hit":
			// a request that arrived after the leader finished
		}
	}
	if miss != 1 {
		t.Fatalf("%d misses, want exactly 1 leader", miss)
	}
	if coalesced == 0 {
		t.Fatal("no request was coalesced onto the leader")
	}
}

// TestFigureFailureNotCached: a generation that reports failures must
// not be replayed from the response cache.
func TestFigureFailureNotCached(t *testing.T) {
	s := testServer()
	var calls atomic.Int32
	s.generate = func(ctx context.Context, which string, quick bool) ([]*experiments.Figure, []experiments.Failure) {
		calls.Add(1)
		return nil, []experiments.Failure{{ID: which, Err: fmt.Errorf("transient")}}
	}
	h := s.handler()
	for i := 0; i < 2; i++ {
		rec := get(t, h, "/v1/figure?id=5")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, rec.Code)
		}
		if got := rec.Header().Get(cacheHeader); got != "miss" {
			t.Fatalf("request %d: %s = %q, want miss (failures are uncacheable)", i, cacheHeader, got)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("failed generation was cached: %d calls", calls.Load())
	}
}

func TestFigureBadRequests(t *testing.T) {
	h := testServer().handler()
	for _, url := range []string{"/v1/figure", "/v1/figure?id=nope", "/v1/figure?id=3&quick=maybe"} {
		if rec := get(t, h, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", url, rec.Code)
		}
	}
}

// TestModelQuery: a closed-form evaluation echoes the overlaid params
// and returns Eq. 8 outputs in range.
func TestModelQuery(t *testing.T) {
	h := testServer().handler()
	rec := get(t, h, "/v1/model?tau_b=10&alpha_b=0.1")
	if rec.Code != http.StatusOK {
		t.Fatalf("%d: %s", rec.Code, rec.Body.String())
	}
	var resp modelResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Params.TauB != 10 {
		t.Fatalf("params not overlaid: τ_B = %g", resp.Params.TauB)
	}
	if resp.Progress <= 0 || resp.Progress >= 1 {
		t.Fatalf("progress %g out of range", resp.Progress)
	}
	if resp.ProgressLo > resp.Progress || resp.Progress > resp.ProgressHi {
		t.Fatalf("bounds %g..%g do not bracket %g", resp.ProgressLo, resp.ProgressHi, resp.Progress)
	}
	if resp.TauBOpt <= 0 {
		t.Fatal("no τ_B,opt")
	}
	if rec := get(t, h, "/v1/model?tau_b=-1"); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid τ_B accepted: %d", rec.Code)
	}
	if rec := get(t, h, "/v1/model?tau_b=abc"); rec.Code != http.StatusBadRequest {
		t.Fatalf("non-numeric τ_B accepted: %d", rec.Code)
	}
}

// TestSweepQuery: the τ_B sweep returns the requested grid and its
// argmax near the analytic optimum.
func TestSweepQuery(t *testing.T) {
	h := testServer().handler()
	rec := get(t, h, "/v1/sweep?lo=1&hi=1000&n=200")
	if rec.Code != http.StatusOK {
		t.Fatalf("%d: %s", rec.Code, rec.Body.String())
	}
	var resp sweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 200 {
		t.Fatalf("%d points", len(resp.Points))
	}
	if resp.Best.P <= 0 {
		t.Fatal("no progress anywhere on the sweep")
	}
	if ratio := resp.Best.X / resp.TauBOpt; ratio < 0.5 || ratio > 2 {
		t.Fatalf("sweep argmax τ_B=%g far from analytic optimum %g", resp.Best.X, resp.TauBOpt)
	}
	for _, url := range []string{
		"/v1/sweep?lo=0", "/v1/sweep?lo=10&hi=1", "/v1/sweep?n=1",
		"/v1/sweep?space=cubic", "/v1/sweep?dead=sometimes",
	} {
		if rec := get(t, h, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", url, rec.Code)
		}
	}
}

// TestModelSweepNonFinite: non-finite range bounds and results that
// overflow float64 are the query's fault — 400 naming the problem, not
// a 500 from the JSON encoder.
func TestModelSweepNonFinite(t *testing.T) {
	h := testServer().handler()
	for _, c := range []struct{ url, want string }{
		{"/v1/sweep?lo=NaN", "lo"},
		{"/v1/sweep?hi=NaN", "hi"},
		{"/v1/sweep?hi=Inf", "hi"},
		{"/v1/model?e=1e308", "not finite"},
	} {
		rec := get(t, h, c.url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", c.url, rec.Code, strings.TrimSpace(rec.Body.String()))
			continue
		}
		if !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("%s: body %q does not mention %q", c.url, rec.Body.String(), c.want)
		}
	}
}

// FuzzModelSweepQuery: no query string may make /v1/model or /v1/sweep
// answer a server error — bad input is always the client's 4xx.
func FuzzModelSweepQuery(f *testing.F) {
	for _, q := range []string{
		"", "tau_b=10&alpha_b=0.1", "lo=1&hi=1000&n=200", "lo=NaN", "hi=Inf",
		"e=1e308", "lo=1e-300&hi=1e300&space=lin", "epsilon_c=-0&dead=worst",
		"n=2&lo=5&hi=5", "tau_b=1e-320&omega_b=1e300",
	} {
		f.Add(q)
	}
	h := testServer().handler()
	f.Fuzz(func(t *testing.T, q string) {
		for _, path := range []string{"/v1/model", "/v1/sweep"} {
			req := httptest.NewRequest("GET", path, nil)
			req.URL.RawQuery = q
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s?%s: %d %s", path, q, rec.Code, rec.Body.String())
			}
		}
	})
}

// TestRequestsSharePool: every request's context derives from the one
// base context main builds, so the simulations of all requests share
// its pool. Under -workers 1, four concurrent cold requests for
// distinct figures run their cells one at a time: no two cell spans of
// the four request traces overlap.
func TestRequestsSharePool(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates four quick figures")
	}
	s := testServer()
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newHTTPServer("", s.handler(), baseContext(1, 0))
	ts.Start()
	defer ts.Close()

	ids := []string{"5", "charging", "breakeven", "hibernus-margin"}
	traces := make([]obsv.TraceID, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		traces[i] = obsv.NewTraceID()
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("GET", ts.URL+"/v1/figure?quick=1&id="+id, nil)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set(traceHeader, traces[i].String())
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "miss" {
				t.Errorf("figure %s: %d, %s %q", id, resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader))
			}
		}()
	}
	wg.Wait()

	var cells []obsv.Span
	for i, id := range traces {
		td, ok := s.traces.Get(id)
		if !ok {
			t.Fatalf("figure %s: trace %s not retained", ids[i], id)
		}
		n := len(cells)
		for _, sp := range td.Spans {
			if sp.Name == "cell" {
				cells = append(cells, sp)
			}
		}
		if len(cells) == n {
			t.Fatalf("figure %s ran no cells", ids[i])
		}
	}
	for i, a := range cells {
		for _, b := range cells[i+1:] {
			if a.Start.Before(b.End) && b.Start.Before(a.End) {
				t.Fatalf("cells %v and %v ran at once under a pool of one", a.Attrs, b.Attrs)
			}
		}
	}
}

// TestNewHTTPServerLimits pins the connection limits ehserve listens
// with — and that no WriteTimeout cuts SSE streams short.
func TestNewHTTPServerLimits(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler(), context.Background())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout < time.Minute {
		t.Errorf("IdleTimeout = %v", srv.IdleTimeout)
	}
	if srv.MaxHeaderBytes != maxHeaderBytes || srv.MaxHeaderBytes <= 0 {
		t.Errorf("MaxHeaderBytes = %d", srv.MaxHeaderBytes)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", srv.WriteTimeout)
	}
}

// TestMetricsEndpoint: served requests show up in /metrics, along with
// the result store's counters.
func TestMetricsEndpoint(t *testing.T) {
	h := testServer().handler()
	get(t, h, "/v1/model?tau_b=10")
	get(t, h, "/v1/figure?id=nope") // a 400, counted as an error
	rec := get(t, h, "/metrics?format=json")
	if rec.Code != http.StatusOK {
		t.Fatalf("%d", rec.Code)
	}
	var m struct {
		Requests      uint64 `json:"requests"`
		RequestErrors uint64 `json:"request_errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests < 2 {
		t.Fatalf("requests = %d, want ≥ 2", m.Requests)
	}
	if m.RequestErrors < 1 {
		t.Fatalf("request_errors = %d, want ≥ 1", m.RequestErrors)
	}
	csv := get(t, h, "/metrics")
	if csv.Code != http.StatusOK || !strings.Contains(csv.Body.String(), "requests") {
		t.Fatalf("CSV export missing request accounting: %d", csv.Code)
	}
}

func TestHealthz(t *testing.T) {
	rec := get(t, testServer().handler(), "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("%d %s", rec.Code, rec.Body.String())
	}
}
