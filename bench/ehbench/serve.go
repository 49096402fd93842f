package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// The serve workloads drive a real ehserve process over loopback HTTP
// from one load-generating process: an open loop at a fixed rate, each
// request timed from the moment it was due, on at most nproc
// connections.

// verifyEvery: every 50th model and sweep reply is checked in full.
const verifyEvery = 50

// primed holds the reply bodies priming stored in ehserve's caches: one
// per figure ID with quick=1, and id=all.
type primed map[string][]byte

// prime requests every figure ID and then id=all with quick=1, checking
// each reply's figures against the golden CSV digests. With traced set,
// each priming request carries a trace ID, returned keyed by figure ID.
func prime(s *server, e *env, r *result, traced bool) (primed, map[string]string, error) {
	p := primed{}
	traceIDs := map[string]string{}
	for i, id := range append(figureIDs(), "all") {
		tid := ""
		if traced {
			tid = fmt.Sprintf("%016x", i+1)
			traceIDs[id] = tid
		}
		code, _, body, err := s.get("/v1/figure?quick=1&id="+id, tid)
		if err != nil {
			return nil, nil, fmt.Errorf("prime %s: %w", id, err)
		}
		ok := r.check("serve.prime_status", code == http.StatusOK, "id=%s: HTTP %d", id, code)
		if ok {
			d := servedFiguresDiff(e.golden, id, body)
			ok = r.check("serve.prime_golden", d == "", "id=%s: %s", id, d)
		}
		r.attempt(ok)
		p[id] = body
	}
	return p, traceIDs, nil
}

// servedFiguresDiff compares a /v1/figure reply's figures with the
// golden digests.
func servedFiguresDiff(g *golden, id string, body []byte) string {
	got, err := figuresCSVDigests(body)
	if err != nil {
		return err.Error()
	}
	return figuresDiff(g, id, got)
}

// request is one generated request of the serve mix.
type request struct {
	kind   string // model, sweep, figure, figure_prov, figure_all, or ping
	path   string
	id     string  // figure ID
	tauB   float64 // model
	alphaB float64 // model
	n      int     // sweep points
	verify bool    // model and sweep: check the reply in full
	trace  string  // X-EH-Trace ID, "" for untraced requests
}

// requestKinds is the serve mix in order, with each kind's share.
var requestKinds = []struct {
	kind  string
	share float64
}{
	{"model", 0.50}, {"sweep", 0.20}, {"figure", 0.24}, {"figure_prov", 0.03}, {"figure_all", 0.03},
}

// newTraceID draws a nonzero 16-hex-digit trace ID.
func newTraceID(rng *rand.Rand) string {
	return fmt.Sprintf("%016x", rng.Uint64()|1)
}

// pingEvery: ahead of every pingEvery ehserve requests the schedule sends
// one to the reference server.
const pingEvery = 10

// makeMix draws n requests of the serve mix from seed: model queries with
// random τ_B and α_B, τ_B sweeps with random upper bound and size, and
// quick figures, with a reference ping ahead of every pingEvery of them.
// traceFrac of the ehserve requests carry a trace header.
func makeMix(seed int64, n int, traceFrac float64) []request {
	rng := rand.New(rand.NewSource(seed))
	ids := figureIDs()
	out := make([]request, 0, n+n/pingEvery+1)
	var models, sweeps int
	for i := 0; i < n; i++ {
		if i%pingEvery == 0 {
			out = append(out, request{kind: "ping", path: "/"})
		}
		u := rng.Float64()
		kind := requestKinds[len(requestKinds)-1].kind
		for _, k := range requestKinds {
			if u < k.share {
				kind = k.kind
				break
			}
			u -= k.share
		}
		q := request{kind: kind}
		switch kind {
		case "model":
			q.tauB = logUniform(rng, 1, 1e4)
			q.alphaB = rng.Float64()
			q.path = "/v1/model?tau_b=" + fmtFloat(q.tauB) + "&alpha_b=" + fmtFloat(q.alphaB)
			q.verify = models%verifyEvery == 0
			models++
		case "sweep":
			hi := logUniform(rng, 10, 1e4)
			q.n = 50 + rng.Intn(451)
			q.path = "/v1/sweep?hi=" + fmtFloat(hi) + "&n=" + strconv.Itoa(q.n)
			q.verify = sweeps%verifyEvery == 0
			sweeps++
		case "figure", "figure_prov":
			q.id = ids[rng.Intn(len(ids))]
			q.path = "/v1/figure?quick=1&id=" + q.id
			if kind == "figure_prov" {
				q.path += "&provenance=1"
			}
		case "figure_all":
			q.id = "all"
			q.path = "/v1/figure?quick=1&id=all"
		}
		if rng.Float64() < traceFrac {
			q.trace = newTraceID(rng)
		}
		out = append(out, q)
	}
	return out
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkReply verifies one reply against what the request must return:
// figure bodies byte-equal to the primed ones (provenance envelopes
// carry the same figure), and sampled model and sweep replies equal to a
// local evaluation of the closed-form model.
func checkReply(q request, p primed, hdr http.Header, body []byte) error {
	switch q.kind {
	case "figure", "figure_all":
		if !bytes.Equal(body, p[q.id]) {
			return fmt.Errorf("figure %s: body differs from the primed reply", q.id)
		}
	case "figure_prov":
		var env struct {
			Figure json.RawMessage `json:"figure"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("figure %s provenance: %v", q.id, err)
		}
		var a, b bytes.Buffer
		if json.Compact(&a, env.Figure) != nil || json.Compact(&b, p[q.id]) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
			return fmt.Errorf("figure %s provenance: figure differs from the primed reply", q.id)
		}
		if c := hdr.Get("X-EH-Cache"); c != "hit" {
			return fmt.Errorf("figure %s provenance: X-EH-Cache %q, want hit", q.id, c)
		}
	case "model":
		if !q.verify {
			return nil
		}
		var m struct {
			Progress float64 `json:"progress"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("model: %v", err)
		}
		if want := modelProgress(q.tauB, q.alphaB); m.Progress != want {
			return fmt.Errorf("model τ_B=%v α_B=%v: progress %v, local %v", q.tauB, q.alphaB, m.Progress, want)
		}
	case "sweep":
		if !q.verify {
			return nil
		}
		var sw struct {
			Points []json.RawMessage `json:"points"`
		}
		if err := json.Unmarshal(body, &sw); err != nil {
			return fmt.Errorf("sweep: %v", err)
		}
		if len(sw.Points) != q.n {
			return fmt.Errorf("sweep: %d points, want %d", len(sw.Points), q.n)
		}
	}
	return nil
}

// arrival is one open-loop request's timeline, in ns from the start of
// the schedule: when it was due, when the generator released it to the
// connection queue and when its reply was complete.
type arrival struct {
	due, sent, done int64
	err             error
}

// latency is the request's time from release to reply. It includes the
// wait for a free connection, so a stall still charges its delay to every
// request queued behind it. It starts at the release rather than the due
// time because the generator sleeps with the kernel's timer, whose
// granularity (about 1 ms on the calibration VM) would otherwise add a
// uniform 0-1 ms of scheduling jitter to every sample; that lateness is
// reported on its own.
func (a arrival) latency() int64 { return a.done - a.sent }

// late is how far behind schedule the generator released the request.
func (a arrival) late() int64 { return a.sent - a.due }

// openLoop issues n requests at rate per second, request i due at
// i/rate, on conc workers, each handling one request at a time. The
// schedule never waits for replies: requests queue when the workers are
// busy, and their wait counts in their latency. after, when not nil,
// runs on the worker once request i's reply is timed.
func openLoop(ctx context.Context, rate float64, n, conc int, do func(i int) error, after func(i int)) []arrival {
	out := make([]arrival, n)
	queue := make(chan int, n) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].err = do(i)
				out[i].done = time.Since(start).Nanoseconds()
				if after != nil {
					after(i)
				}
			}
		}()
	}
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := int64(float64(i) * interval)
		if wait := time.Duration(due - time.Since(start).Nanoseconds()); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			for j := i; j < n; j++ {
				d := int64(float64(j) * interval)
				out[j] = arrival{due: d, sent: d, done: d, err: ctx.Err()}
			}
			break
		}
		out[i].due = due
		out[i].sent = time.Since(start).Nanoseconds()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// loadResult is one rate's measurement.
type loadResult struct {
	mix      []request
	arrivals []arrival
	spans    map[int][]span // request index → server spans (traced requests)
	bytes    []float64      // reply sizes
}

// drive runs the open loop against s for d, rate ehserve requests per
// second plus the reference pings to ping, and checks every reply.
func drive(ctx context.Context, s, ping *server, p primed, r *result, rate float64, d time.Duration, seed int64, traceFrac float64) loadResult {
	lr := loadResult{mix: makeMix(seed, int(rate*d.Seconds()), traceFrac), spans: map[int][]span{}}
	lr.bytes = make([]float64, len(lr.mix))
	var mu sync.Mutex
	// A traced request's server-side spans are fetched right after its
	// reply, before the server's bounded trace store evicts them.
	fetchSpans := func(i int) {
		if lr.mix[i].trace == "" {
			return
		}
		if sp, err := s.serverSpans(lr.mix[i].trace); err == nil {
			mu.Lock()
			lr.spans[i] = sp
			mu.Unlock()
		}
	}
	loopRate := rate * (pingEvery + 1) / pingEvery
	lr.arrivals = openLoop(ctx, loopRate, len(lr.mix), workers(), func(i int) error {
		q := lr.mix[i]
		target := s
		if q.kind == "ping" {
			target = ping
		}
		start := time.Now()
		code, hdr, body, err := target.get(q.path, q.trace)
		addSpan(ctx, "http."+q.kind, start, time.Now())
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%s: HTTP %d", q.path, code)
		}
		if err == nil {
			err = checkReply(q, p, hdr, body)
		}
		lr.bytes[i] = float64(len(body))
		return err
	}, fetchSpans)
	for _, a := range lr.arrivals {
		r.attempt(r.check("serve.reply", a.err == nil, "%v", a.err))
	}
	return lr
}

// latenciesMS returns the sorted latencies in ms of the requests of one
// kind ("" = every ehserve request); a failed request counts as at least
// the client timeout.
func (lr loadResult) latenciesMS(kind string) []float64 {
	var out []float64
	for i, a := range lr.arrivals {
		k := lr.mix[i].kind
		if (kind == "" && k == "ping") || (kind != "" && k != kind) {
			continue
		}
		l := float64(a.latency()) / 1e6
		if a.err != nil && l < float64(requestTimeout.Milliseconds()) {
			l = float64(requestTimeout.Milliseconds())
		}
		out = append(out, l)
	}
	return sorted(out)
}

// ehserveRequests counts the requests drive sent to ehserve.
func (lr loadResult) ehserveRequests() int { return len(lr.latenciesMS("")) }

func (lr loadResult) lateMS() []float64 {
	out := make([]float64, len(lr.arrivals))
	for i, a := range lr.arrivals {
		out[i] = float64(a.late()) / 1e6
	}
	return sorted(out)
}

// serveSetup starts a fresh ehserve and primes it.
func serveSetup(ctx context.Context, e *env, r *result, traced bool) (*server, primed, map[string]string, error) {
	dir, err := os.MkdirTemp(e.tmp, "ehserve-")
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := startEhserve(ctx, e.ehserve, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	p, tids, err := prime(s, e, r, traced)
	if err != nil {
		s.stop()
		return nil, nil, nil, err
	}
	return s, p, tids, nil
}

func serveWorkload(rate float64) func(ctx context.Context, e *env, r *result) error {
	return func(ctx context.Context, e *env, r *result) error {
		ping, err := startPing(ctx, e.tmp)
		if err != nil {
			return err
		}
		// Every repetition of the set-up starts its own ehserve; all but
		// the last are stopped once set-up is over, outside its timing.
		servers := []*server{ping}
		defer func() {
			for _, s := range servers {
				s.stop()
			}
		}()
		var p primed
		err = setupPhase(e, r, fullTick, func() error {
			s, sp, _, err := serveSetup(ctx, e, r, false)
			if err == nil {
				servers, p = append(servers, s), sp
			}
			return err
		})
		if err != nil {
			return err
		}
		s := servers[len(servers)-1]
		for _, old := range servers[1 : len(servers)-1] {
			old.stop()
		}
		servers = []*server{ping, s}
		lr := drive(ctx, s, ping, p, r, rate, e.run, e.seed, 0)
		checkServed(s, r, lr.ehserveRequests())
		// Latency is scaled by the reference ping's median, measured on
		// the same connections in the same run: see pingNominalMS.
		pingP50 := median(lr.latenciesMS("ping"))
		var ops opSamples
		for _, l := range lr.latenciesMS("") {
			ops.add(l, pingP50, pingNominalMS)
		}
		setOps(r, ops, "ping_p50_ms")
		tp, tv, tb := tailPercentile(sorted(ops.raw))
		r.info(fmt.Sprintf("op_p%g_ms_raw", tp), "ms", tv, tb)
		late99, _ := percentile(lr.lateMS(), 99)
		r.info("loadgen.late_p99_ms", "ms", late99, len(lr.arrivals))
		return nil
	}
}

// checkServed compares the server's own request count with what was
// sent: every request reached the server and none errored there.
func checkServed(s *server, r *result, sent int) {
	m, err := s.metrics()
	ok := err == nil && m.Requests >= uint64(sent) && m.RequestErrors == 0
	r.check("serve.server_accounting", ok, "requests=%d errors=%d sent=%d err=%v", m.Requests, m.RequestErrors, sent, err)
}
