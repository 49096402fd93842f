package obsv

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Request-scoped tracing. Where the Event vocabulary records what one
// simulated device did (at simulated-time positions), a Span records
// what the *serving stack* did in wall-clock time: parsing a request,
// looking up a cache, waiting on a singleflight leader, running one
// simulation cell. Spans form a tree per trace (one trace per request),
// are carried through the call stack via context.Context, and obey the
// same contract as the rest of this package: when no trace is attached
// to the context, StartSpan returns a nil *Span whose methods are
// no-ops, and the disabled path performs no allocation — a context
// lookup and a nil check, nothing else.

// TraceID identifies one trace: 8 random bytes rendered as 16 hex
// characters, the format of the X-EH-Trace header.
type TraceID [8]byte

// NewTraceID returns a fresh random trace ID.
func NewTraceID() TraceID {
	var id TraceID
	// crypto/rand.Read never fails on supported platforms (it panics
	// instead); no error path to handle.
	rand.Read(id[:]) //nolint:errcheck
	return id
}

// ParseTraceID decodes the 16-hex-character header form. The zero ID is
// rejected so "absent" and "present" never alias.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	if id == (TraceID{}) {
		return TraceID{}, false
	}
	return id, true
}

func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// MarshalText renders the ID in header form for JSON payloads.
func (id TraceID) MarshalText() ([]byte, error) {
	out := make([]byte, 2*len(id))
	hex.Encode(out, id[:])
	return out, nil
}

// SpanID numbers spans within one trace; 0 means "no span" (a root's
// parent).
type SpanID uint64

// Attr is one span attribute. Values are strings so the set stays
// closed under JSON round-trips; use Span.SetUint for counters.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Span is one timed operation inside a trace. A *Span returned by
// StartSpan is live until End; all methods are safe on a nil receiver
// (the disabled-tracing case) and must be called from the goroutine
// that started the span.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr

	tr *Trace
}

// SetAttr attaches a string attribute. No-op on a nil span.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

// SetUint attaches an integer attribute. No-op on a nil span.
func (s *Span) SetUint(key string, v uint64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: strconv.FormatUint(v, 10)})
}

// SetBool attaches a boolean attribute. No-op on a nil span.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	val := "false"
	if v {
		val = "true"
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

// Finish stamps the end time and records the span onto its trace.
// No-op on a nil span; a second call is ignored.
func (s *Span) Finish() {
	if s == nil || s.tr == nil {
		return
	}
	s.End = time.Now()
	s.tr.record(*s)
	s.tr = nil
}

// DefaultSpanLimit bounds the spans one trace retains; past it the
// trace counts drops instead of growing without bound (a runaway sweep
// must not turn a request trace into a memory leak).
const DefaultSpanLimit = 4096

// Trace is one in-progress trace: an ID, a start time and the bounded
// set of completed spans. It is safe for concurrent use — sweep workers
// on different goroutines record spans of the same request.
type Trace struct {
	ID    TraceID
	Start time.Time

	mu      sync.Mutex
	next    SpanID
	spans   []Span
	limit   int
	dropped uint64
}

// NewTrace starts a trace retaining at most limit spans (≤ 0 selects
// DefaultSpanLimit).
func NewTrace(id TraceID, limit int) *Trace {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Trace{ID: id, Start: time.Now(), limit: limit}
}

func (t *Trace) nextID() SpanID {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id
}

func (t *Trace) record(sp Span) {
	sp.tr = nil
	t.mu.Lock()
	if len(t.spans) >= t.limit {
		t.dropped++
	} else {
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// AddSpan records an already-completed span directly — how retroactive
// spans (a singleflight wait only known to have happened once the
// leader returns) enter the trace. Returns the new span's ID.
func (t *Trace) AddSpan(name string, parent SpanID, start, end time.Time, attrs ...Attr) SpanID {
	id := t.nextID()
	t.record(Span{ID: id, Parent: parent, Name: name, Start: start, End: end, Attrs: attrs})
	return id
}

// Snapshot freezes the trace into an exportable TraceData. Spans are
// ordered by start time so the tree renders deterministically.
func (t *Trace) Snapshot() *TraceData {
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	return &TraceData{ID: t.ID, Start: t.Start, Spans: spans, Dropped: dropped}
}

// spanCtx is the context payload: the trace plus the current span (the
// parent of whatever starts next). Stored as a pointer so the disabled
// lookup is a single interface assertion with no allocation.
type spanCtx struct {
	tr *Trace
	id SpanID
}

type spanCtxKey struct{}

// ContextWithTrace attaches tr as the context's active trace; spans
// started below parent to the trace root. A nil tr returns ctx
// unchanged.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, &spanCtx{tr: tr})
}

// TraceFrom returns the context's active trace, or nil when tracing is
// disabled for this request.
func TraceFrom(ctx context.Context) *Trace {
	if sc, ok := ctx.Value(spanCtxKey{}).(*spanCtx); ok {
		return sc.tr
	}
	return nil
}

// StartSpan opens a span named name under the context's current span.
// With no trace attached it returns ctx unchanged and a nil *Span —
// every Span method is a no-op on nil, so call sites need no guard and
// the disabled path allocates nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sc, ok := ctx.Value(spanCtxKey{}).(*spanCtx)
	if !ok {
		return ctx, nil
	}
	sp := &Span{
		ID:     sc.tr.nextID(),
		Parent: sc.id,
		Name:   name,
		Start:  time.Now(),
		tr:     sc.tr,
	}
	return context.WithValue(ctx, spanCtxKey{}, &spanCtx{tr: sc.tr, id: sp.ID}), sp
}

// AddSpan records a completed [start, end] span named name under the
// context's current span; no-op (returning 0) when tracing is disabled.
func AddSpan(ctx context.Context, name string, start, end time.Time, attrs ...Attr) SpanID {
	sc, ok := ctx.Value(spanCtxKey{}).(*spanCtx)
	if !ok {
		return 0
	}
	return sc.tr.AddSpan(name, sc.id, start, end, attrs...)
}

// TraceData is a frozen trace: what the trace store retains and the
// JSON/Chrome exporters consume.
type TraceData struct {
	ID      TraceID   `json:"trace_id"`
	Start   time.Time `json:"start"`
	Spans   []Span    `json:"-"`
	Dropped uint64    `json:"dropped,omitempty"`
}

// SpanNode is one node of the rendered span tree.
type SpanNode struct {
	ID       SpanID            `json:"id"`
	Name     string            `json:"name"`
	StartUS  int64             `json:"start_us"` // offset from trace start
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanNode       `json:"children,omitempty"`
}

// Tree assembles the span forest: roots (parent 0 or unknown) in start
// order, children nested under their parents.
func (td *TraceData) Tree() []*SpanNode {
	nodes := make(map[SpanID]*SpanNode, len(td.Spans))
	for i := range td.Spans {
		sp := &td.Spans[i]
		n := &SpanNode{
			ID:      sp.ID,
			Name:    sp.Name,
			StartUS: sp.Start.Sub(td.Start).Microseconds(),
			DurUS:   sp.End.Sub(sp.Start).Microseconds(),
		}
		if len(sp.Attrs) > 0 {
			n.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				n.Attrs[a.Key] = a.Val
			}
		}
		nodes[sp.ID] = n
	}
	var roots []*SpanNode
	for i := range td.Spans {
		sp := &td.Spans[i]
		if parent, ok := nodes[sp.Parent]; ok && sp.Parent != sp.ID {
			parent.Children = append(parent.Children, nodes[sp.ID])
		} else {
			roots = append(roots, nodes[sp.ID])
		}
	}
	return roots
}

// WriteTree renders the trace as an indented JSON span tree — the
// /v1/trace/{id} payload and the ehfigs -trace-spans file format.
func (td *TraceData) WriteTree(w io.Writer) error {
	doc := struct {
		TraceID TraceID     `json:"trace_id"`
		Start   time.Time   `json:"start"`
		Spans   int         `json:"spans"`
		Dropped uint64      `json:"dropped,omitempty"`
		Tree    []*SpanNode `json:"tree"`
	}{TraceID: td.ID, Start: td.Start, Spans: len(td.Spans), Dropped: td.Dropped, Tree: td.Tree()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
