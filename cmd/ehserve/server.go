package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ehmodel/internal/core"
	"ehmodel/internal/experiments"
	"ehmodel/internal/obsv"
	"ehmodel/internal/runner"
	"ehmodel/internal/sweep"
)

// cacheHeader is the response header reporting how a figure query was
// answered: "miss" (generated now), "hit" (served from the response
// cache) or "coalesced" (piggybacked on an identical in-flight
// generation).
const cacheHeader = "X-EH-Cache"

// server answers figure/sweep/model queries. Figure responses are the
// expensive ones; they go through a request-keyed singleflight plus a
// response byte cache, and the simulations underneath go through the
// shared sweep executor's content-addressed store.
type server struct {
	exec    *sweep.Executor
	timeout time.Duration

	// generate is experiments.GenerateFigures under the request
	// context's pool, injectable so tests can count and stall
	// generations to observe the singleflight.
	generate func(ctx context.Context, which string, quick bool) ([]*experiments.Figure, []experiments.Failure)

	// traces retains the last N request traces for /v1/trace/{id}; nil
	// disables request tracing entirely (the -trace-store 0 flag).
	traces *obsv.TraceStore
	// hub fans live request/cell events out to /v1/events subscribers.
	hub *eventHub
	// series is the sampled /metrics delta ring behind /v1/metrics/series.
	series *obsv.Series

	mu      sync.Mutex
	metrics obsv.Metrics
	resp    map[string][]byte
	// flights coalesces concurrent generations of one figure request.
	flights sweep.Group[string, []byte]

	// Sampler state: the previous snapshot each interval's deltas are
	// computed against. Guarded by smu (not mu: sampling must not
	// contend with request accounting beyond the snapshot itself).
	smu        sync.Mutex
	lastSample obsv.Metrics
	lastStats  sweep.Stats
	lastTraces uint64
	lastSpans  uint64
	lastAt     time.Time
}

func newServer(exec *sweep.Executor, timeout time.Duration) *server {
	return &server{
		exec:    exec,
		timeout: timeout,
		generate: func(ctx context.Context, which string, quick bool) ([]*experiments.Figure, []experiments.Failure) {
			return experiments.GenerateFigures(ctx, which, quick, runner.Options{})
		},
		traces: obsv.NewTraceStore(0),
		hub:    newEventHub(),
		series: obsv.NewSeries(0),
		resp:   map[string][]byte{},
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.observe(s.handleHealth))
	mux.HandleFunc("GET /metrics", s.observe(s.handleMetrics))
	mux.HandleFunc("GET /v1/figure", s.observe(s.handleFigure))
	mux.HandleFunc("GET /v1/sweep", s.observe(s.handleSweep))
	mux.HandleFunc("GET /v1/model", s.observe(s.handleModel))
	mux.HandleFunc("GET /v1/trace/{id}", s.observe(s.handleTrace))
	mux.HandleFunc("GET /v1/metrics/series", s.observe(s.handleSeries))
	// The event stream is long-lived; it bypasses the request deadline
	// and counts itself out of the latency histogram.
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	return mux
}

// statusWriter captures the response status for request accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush passes streaming flushes through to the underlying writer, so
// wrapped handlers can still serve server-sent events.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// traceHeader carries the request's trace ID: accepted inbound (so a
// caller can name its own trace) and always echoed outbound, which is
// how a client learns the ID to fetch from /v1/trace/{id}.
const traceHeader = "X-EH-Trace"

// observe wraps a handler with the per-request deadline, the
// latency/error accounting exported at /metrics, and the request trace:
// every wrapped request gets a trace (ID from the X-EH-Trace header or
// generated) whose root "request" span brackets the handler, retained
// in the trace store and announced on the event stream.
func (s *server) observe(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}
		var tr *obsv.Trace
		var root *obsv.Span
		if s.traces != nil {
			id, ok := obsv.ParseTraceID(r.Header.Get(traceHeader))
			if !ok {
				id = obsv.NewTraceID()
			}
			tr = obsv.NewTrace(id, 0)
			ctx = obsv.ContextWithTrace(ctx, tr)
			ctx, root = obsv.StartSpan(ctx, "request")
			root.SetAttr("method", r.Method)
			root.SetAttr("path", r.URL.Path)
			w.Header().Set(traceHeader, id.String())
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(ctx))
		us := time.Since(start).Microseconds()
		s.mu.Lock()
		s.metrics.ObserveRequest(us, sw.status >= 400)
		s.mu.Unlock()
		if tr != nil {
			root.SetUint("status", uint64(sw.status))
			root.Finish()
			s.traces.Add(tr.Snapshot())
			if s.hub.active() {
				s.hub.publish(requestEvent{
					Type:   "request",
					Trace:  tr.ID.String(),
					Method: r.Method,
					Path:   r.URL.Path,
					Status: sw.status,
					DurUS:  us,
				})
			}
		}
	}
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// snapshotMetrics returns a copy of the request accounting safe to use
// outside the lock. A plain struct copy is not enough: Metrics holds a
// reference field (the ErrorClasses map), and handing its header out of
// the critical section would let an exporter read the map while a
// request goroutine grows it. Clone it under the lock.
func (s *server) snapshotMetrics() obsv.Metrics {
	s.mu.Lock()
	snap := s.metrics
	if snap.ErrorClasses != nil {
		ec := make(map[string]uint64, len(snap.ErrorClasses))
		for k, v := range snap.ErrorClasses {
			ec[k] = v
		}
		snap.ErrorClasses = ec
	}
	s.mu.Unlock()
	return snap
}

// handleMetrics exports the request accounting with the result store's
// counters folded in, as CSV (default) or JSON (?format=json).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotMetrics()
	st := s.exec.Stats()
	snap.AddCache(st.Hits, st.Misses, st.Bypass, st.Dedup, st.StoreErrors)
	var buf bytes.Buffer
	var err error
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		err = snap.WriteJSON(&buf)
	} else {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		err = snap.WriteCSV(&buf)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(buf.Bytes()) //nolint:errcheck // client gone
}

// handleTrace serves one retained request trace: the indented span tree
// by default, the Chrome trace_event form with ?format=chrome (load it
// in chrome://tracing or Perfetto next to a -trace file).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		http.Error(w, "request tracing disabled (-trace-store 0)", http.StatusNotFound)
		return
	}
	id, ok := obsv.ParseTraceID(r.PathValue("id"))
	if !ok {
		http.Error(w, "bad trace id (want 16 hex characters)", http.StatusBadRequest)
		return
	}
	td, ok := s.traces.Get(id)
	if !ok {
		http.Error(w, "trace not found (evicted or never seen)", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	var err error
	if r.URL.Query().Get("format") == "chrome" {
		err = obsv.WriteSpansChrome(&buf, td)
	} else {
		err = td.WriteTree(&buf)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes()) //nolint:errcheck // client gone
}

// seriesResponse is the /v1/metrics/series payload.
type seriesResponse struct {
	Window  int           `json:"window"`
	Samples []obsv.Sample `json:"samples"`
}

// handleSeries serves the sampled metrics ring, oldest sample first.
func (s *server) handleSeries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, seriesResponse{
		Window:  s.series.Cap(),
		Samples: s.series.Snapshot(),
	})
}

// sample records one interval's activity delta into the series ring.
// The ticker loop in main calls it; tests call it directly.
func (s *server) sample(now time.Time) {
	snap := s.snapshotMetrics()
	st := s.exec.Stats()
	var traces, spans uint64
	if s.traces != nil {
		traces, spans = s.traces.Stats()
	}

	s.smu.Lock()
	defer s.smu.Unlock()
	durMS := int64(0)
	if !s.lastAt.IsZero() {
		durMS = now.Sub(s.lastAt).Milliseconds()
	}
	lat := snap.RequestUS.DeltaFrom(&s.lastSample.RequestUS)
	s.series.Add(obsv.Sample{
		UnixMS:        now.UnixMilli(),
		DurMS:         durMS,
		Requests:      snap.Requests - s.lastSample.Requests,
		RequestErrors: snap.RequestErrors - s.lastSample.RequestErrors,
		LatencyP50US:  lat.Quantile(0.50),
		LatencyP99US:  lat.Quantile(0.99),
		CacheHits:     st.Hits - s.lastStats.Hits,
		CacheMisses:   st.Misses - s.lastStats.Misses,
		CacheDedup:    st.Dedup - s.lastStats.Dedup,
		CacheBypass:   st.Bypass - s.lastStats.Bypass,
		Traces:        traces - s.lastTraces,
		Spans:         spans - s.lastSpans,
	})
	s.lastSample, s.lastStats = snap, st
	s.lastTraces, s.lastSpans = traces, spans
	s.lastAt = now
}

// drainSummary renders the shutdown telemetry line: how much the
// process served and recorded over its lifetime, and how warm the
// result store ran (hits and deduplicated cells over all resolved).
func (s *server) drainSummary() string {
	snap := s.snapshotMetrics()
	var traces, spans uint64
	if s.traces != nil {
		traces, spans = s.traces.Stats()
	}
	st := s.exec.Stats()
	hitRate := 0.0
	if t := st.Total(); t > 0 {
		hitRate = float64(st.Hits+st.Dedup) / float64(t)
	}
	return fmt.Sprintf("(%d requests, %d request errors, %d traces, %d spans, store hit rate %.1f%%)",
		snap.Requests, snap.RequestErrors, traces, spans, 100*hitRate)
}

// sampleLoop drives sample on the given interval until ctx ends.
func (s *server) sampleLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			s.sample(now)
		}
	}
}

// figureResponse is the /v1/figure payload.
type figureResponse struct {
	ID       string                `json:"id"`
	Quick    bool                  `json:"quick"`
	Figures  []*experiments.Figure `json:"figures"`
	Failures []figureFailure       `json:"failures,omitempty"`
}

type figureFailure struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

func (s *server) handleFigure(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	parseStart := time.Now()
	q := r.URL.Query()
	id := q.Get("id")
	if id == "" {
		http.Error(w, "missing id parameter", http.StatusBadRequest)
		return
	}
	if !experiments.KnownFigureID(id) {
		http.Error(w, fmt.Sprintf("unknown figure %q (known: all, %s)",
			id, strings.Join(experiments.FigureIDs(), ", ")), http.StatusBadRequest)
		return
	}
	quick := false
	if v := q.Get("quick"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, "bad quick parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		quick = b
	}
	wantProv := false
	if v := q.Get("provenance"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, "bad provenance parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		wantProv = b
	}
	key := fmt.Sprintf("figure|id=%s|quick=%t", id, quick)
	obsv.AddSpan(ctx, "request.parse", parseStart, time.Now())

	// Collect cell provenance only when something reads it: the
	// response (?provenance=1) or a live /v1/events subscriber, whose
	// cell feed the records are. The trace needs no log: it takes its
	// cell data from the executor's cell spans.
	var pl *sweep.ProvLog
	if wantProv || s.hub.active() {
		pl = sweep.NewProvLog(0)
		if s.hub.active() {
			tid := ""
			if tr := obsv.TraceFrom(ctx); tr != nil {
				tid = tr.ID.String()
			}
			pl.OnCell = func(p sweep.CellProv) {
				s.hub.publish(cellEvent{Type: "cell", Trace: tid, CellProv: p})
			}
		}
		ctx = sweep.WithProvLog(ctx, pl)
	}

	lookupStart := time.Now()
	if body, ok := s.cachedFigure(key); ok {
		obsv.AddSpan(ctx, "cache.lookup", lookupStart, time.Now(), obsv.Attr{Key: "outcome", Val: "hit"})
		s.serveFigure(ctx, w, body, "hit", wantProv, pl)
		return
	}
	how := "coalesced"
	waitStart := time.Now()
	body, shared, err := s.flights.Do(ctx, key, func() ([]byte, error) {
		// A previous leader may have cached these bytes between the
		// lookup above and this flight: look again, so no figure is
		// generated twice.
		body, ok := s.cachedFigure(key)
		how = "miss"
		if ok {
			how = "hit"
		}
		obsv.AddSpan(ctx, "cache.lookup", lookupStart, time.Now(), obsv.Attr{Key: "outcome", Val: how})
		if ok {
			return body, nil
		}
		return s.renderFigure(ctx, key, id, quick)
	})
	if shared {
		obsv.AddSpan(ctx, "cache.lookup", lookupStart, waitStart, obsv.Attr{Key: "outcome", Val: "inflight"})
		if err != nil && ctx.Err() != nil {
			// The follower's own deadline ended its wait.
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
			return
		}
		obsv.AddSpan(ctx, "singleflight.wait", waitStart, time.Now())
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.serveFigure(ctx, w, body, how, wantProv, pl)
}

// cachedFigure looks a figure request up in the response byte cache.
func (s *server) cachedFigure(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	body, ok := s.resp[key]
	return body, ok
}

// renderFigure generates and renders one figure request, caching the
// bytes before its flight ends.
func (s *server) renderFigure(ctx context.Context, key, id string, quick bool) ([]byte, error) {
	genCtx, gsp := obsv.StartSpan(ctx, "generate")
	gsp.SetAttr("figure", id)
	figs, failures := s.generate(genCtx, id, quick)
	gsp.Finish()
	renderStart := time.Now()
	resp := figureResponse{ID: id, Quick: quick, Figures: figs}
	for _, f := range failures {
		resp.Failures = append(resp.Failures, figureFailure{ID: f.ID, Error: f.Err.Error()})
	}
	body, err := json.MarshalIndent(&resp, "", "  ")
	obsv.AddSpan(ctx, "render", renderStart, time.Now())
	// Cache only fully successful responses: a sweep clipped by a
	// deadline or a canceled client must not be replayed as truth.
	if err == nil && len(failures) == 0 {
		s.mu.Lock()
		s.resp[key] = body
		s.mu.Unlock()
	}
	return body, err
}

// provEnvelope is the ?provenance=1 response shape: the figure payload
// verbatim, plus how this request obtained it.
type provEnvelope struct {
	Figure     json.RawMessage `json:"figure"`
	Provenance provReport      `json:"provenance"`
}

type provReport struct {
	// Trace is the request's trace ID (fetch the span tree from
	// /v1/trace/{id}); Cache mirrors the X-EH-Cache header.
	Trace string `json:"trace,omitempty"`
	Cache string `json:"cache"`
	// Cells lists every simulation cell this request resolved, in
	// arrival order — empty when the response came from the byte cache.
	Cells []sweep.CellProv `json:"cells"`
	// ComputedCells counts the cells that actually ran a simulation
	// (miss or bypass outcomes).
	ComputedCells int    `json:"computed_cells"`
	Dropped       uint64 `json:"dropped,omitempty"`
}

// serveFigure writes the rendered figure, wrapped in a provenance
// envelope when asked. The envelope is assembled per-request around the
// cached bytes, so the byte cache (and the figures it replays) stays
// identical whether or not anyone asks for provenance.
func (s *server) serveFigure(ctx context.Context, w http.ResponseWriter, body []byte, how string, wantProv bool, pl *sweep.ProvLog) {
	if !wantProv {
		serveFigureBytes(w, body, how)
		return
	}
	env := provEnvelope{
		Figure:     json.RawMessage(body),
		Provenance: provReport{Cache: how, Cells: []sweep.CellProv{}},
	}
	if tr := obsv.TraceFrom(ctx); tr != nil {
		env.Provenance.Trace = tr.ID.String()
	}
	if pl != nil {
		if cells := pl.Cells(); len(cells) > 0 {
			env.Provenance.Cells = cells
		}
		env.Provenance.ComputedCells = pl.ComputedCells()
		env.Provenance.Dropped = pl.Dropped()
	}
	out, err := json.MarshalIndent(&env, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cacheHeader, how)
	w.Write(out) //nolint:errcheck // client gone
}

func serveFigureBytes(w http.ResponseWriter, body []byte, how string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cacheHeader, how)
	w.Write(body) //nolint:errcheck // client gone
}

// sweepResponse is the /v1/sweep payload: Eq. 8 evaluated over a τ_B
// range, with the analytic optimum alongside.
type sweepResponse struct {
	Params  core.Params       `json:"params"`
	Dead    string            `json:"dead_model"`
	Points  []core.SweepPoint `json:"points"`
	Best    core.SweepPoint   `json:"best"`
	TauBOpt float64           `json:"tau_b_opt"`
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pr, err := paramsFromQuery(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	lo, err := floatParam(q, "lo", 1)
	if err == nil && lo <= 0 {
		err = fmt.Errorf("lo must be > 0")
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hi, err := floatParam(q, "hi", 1000)
	if err == nil && hi < lo {
		err = fmt.Errorf("hi must be ≥ lo")
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n := 50
	if v := q.Get("n"); v != "" {
		n, err = strconv.Atoi(v)
		if err != nil || n < 2 || n > 100000 {
			http.Error(w, "n must be an integer in [2, 100000]", http.StatusBadRequest)
			return
		}
	}
	var values []float64
	switch q.Get("space") {
	case "", "log":
		values = core.LogSpace(lo, hi, n)
	case "lin":
		values = core.LinSpace(lo, hi, n)
	default:
		http.Error(w, "space must be log or lin", http.StatusBadRequest)
		return
	}
	dead, err := deadParam(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pts := pr.SweepTauB(values, dead)
	writeResult(w, sweepResponse{
		Params:  pr,
		Dead:    dead.String(),
		Points:  pts,
		Best:    core.ArgmaxP(pts),
		TauBOpt: pr.TauBOpt(),
	})
}

// modelResponse is the /v1/model payload: one closed-form evaluation
// with the derived scalars the paper leans on.
type modelResponse struct {
	Params       core.Params    `json:"params"`
	Progress     float64        `json:"progress"`
	ProgressLo   float64        `json:"progress_worst"`
	ProgressHi   float64        `json:"progress_best"`
	Breakdown    core.Breakdown `json:"breakdown"`
	TauBOpt      float64        `json:"tau_b_opt"`
	TauBBreakEve float64        `json:"tau_b_break_even"`
	TauBBit      float64        `json:"tau_b_bit"`
}

func (s *server) handleModel(w http.ResponseWriter, r *http.Request) {
	pr, err := paramsFromQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	lo, hi := pr.ProgressBounds()
	writeResult(w, modelResponse{
		Params:       pr,
		Progress:     pr.Progress(),
		ProgressLo:   lo,
		ProgressHi:   hi,
		Breakdown:    pr.Breakdown(),
		TauBOpt:      pr.TauBOpt(),
		TauBBreakEve: pr.TauBBreakEven(),
		TauBBit:      pr.TauBBit(),
	})
}

// paramsFromQuery overlays Table I query parameters onto the paper's
// default configuration and validates the result.
func paramsFromQuery(q url.Values) (core.Params, error) {
	pr := core.DefaultParams()
	fields := map[string]*float64{
		"e": &pr.E, "epsilon": &pr.Epsilon, "epsilon_c": &pr.EpsilonC,
		"tau_b": &pr.TauB, "sigma_b": &pr.SigmaB, "omega_b": &pr.OmegaB,
		"a_b": &pr.AB, "alpha_b": &pr.AlphaB,
		"sigma_r": &pr.SigmaR, "omega_r": &pr.OmegaR, "a_r": &pr.AR, "alpha_r": &pr.AlphaR,
	}
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := q.Get(name)
		if v == "" {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return pr, fmt.Errorf("bad %s: %v", name, err)
		}
		*fields[name] = f
	}
	if err := pr.Validate(); err != nil {
		return pr, err
	}
	return pr, nil
}

func floatParam(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", name, err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%w: %s = %v", core.ErrNotFinite, name, f)
	}
	return f, nil
}

func deadParam(q url.Values) (core.DeadModel, error) {
	switch q.Get("dead") {
	case "", "average":
		return core.DeadAverage, nil
	case "best":
		return core.DeadBest, nil
	case "worst":
		return core.DeadWorst, nil
	}
	return 0, fmt.Errorf("dead must be average, best or worst")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client gone
}

// writeResult writes a closed-form model result. Valid, finite inputs
// can still overflow float64 (e=1e308 drives Eq. 8's terms to Inf), and
// JSON has no encoding for Inf or NaN: the query asked for a result
// outside float64's range, so it answers 400 rather than writeJSON's 500.
func writeResult(w http.ResponseWriter, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	var uv *json.UnsupportedValueError
	switch {
	case errors.As(err, &uv):
		http.Error(w, "result is not finite for these parameters: "+uv.Str, http.StatusBadRequest)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(body) //nolint:errcheck // client gone
	}
}
