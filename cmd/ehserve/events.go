package main

import (
	"encoding/json"
	"net/http"
	"sync"

	"ehmodel/internal/sweep"
)

// Live event stream: /v1/events publishes request completions and cell
// resolutions as server-sent events, so "what is the service doing right
// now" is answerable with curl — no scraper, no polling loop.

// eventHub fans published events out to every connected subscriber.
// Delivery is best-effort: a subscriber that stops draining its channel
// silently loses events, and the serving path never blocks.
type eventHub struct {
	mu   sync.Mutex
	subs map[chan []byte]struct{}
}

// subBuffer is each subscriber's channel depth; a burst larger than
// this drops events for that subscriber only.
const subBuffer = 64

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[chan []byte]struct{})}
}

func (h *eventHub) subscribe() chan []byte {
	ch := make(chan []byte, subBuffer)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

func (h *eventHub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// active reports whether anyone is listening, so producers can skip
// building events nobody would see.
func (h *eventHub) active() bool {
	h.mu.Lock()
	n := len(h.subs)
	h.mu.Unlock()
	return n > 0
}

// publish marshals v once and offers it to every subscriber without
// blocking. Marshal failures are impossible for the event structs below
// (plain fields); they are dropped silently to keep the serving path
// unconditional.
func (h *eventHub) publish(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- b:
		default:
		}
	}
	h.mu.Unlock()
}

// requestEvent announces one completed request.
type requestEvent struct {
	Type   string `json:"type"` // "request"
	Trace  string `json:"trace,omitempty"`
	Method string `json:"method"`
	Path   string `json:"path"`
	Status int    `json:"status"`
	DurUS  int64  `json:"dur_us"`
}

// cellEvent announces one resolved simulation cell.
type cellEvent struct {
	Type  string `json:"type"` // "cell"
	Trace string `json:"trace,omitempty"`
	sweep.CellProv
}

// handleEvents streams the hub as server-sent events until the client
// disconnects. It is deliberately not wrapped in the request-deadline
// middleware: the stream is long-lived by design.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// An immediate comment line confirms the subscription to clients
	// (and tests) before the first real event arrives.
	if _, err := w.Write([]byte(": connected\n\n")); err != nil {
		return
	}
	fl.Flush()

	ch := s.hub.subscribe()
	defer s.hub.unsubscribe(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case b := <-ch:
			if _, err := w.Write([]byte("data: ")); err != nil {
				return
			}
			if _, err := w.Write(b); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
