package obsv

import "io"

// Ring is a fixed-capacity flight recorder: it keeps the most recent
// events and overwrites the oldest once full, so an always-on recorder
// costs a bounded, pointer-free allocation made once up front. On an
// unrecoverable error the CLIs dump the snapshot so the last moments
// before the failure are never lost.
type Ring struct {
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewRing returns a recorder holding the last n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, n)}
}

// Event implements Tracer.
func (r *Ring) Event(e Event) {
	if r.wrapped {
		r.dropped++
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
}

// Len reports how many events the ring currently holds.
func (r *Ring) Len() int {
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// Dropped reports how many events were overwritten since creation.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Snapshot returns the retained events oldest-first.
func (r *Ring) Snapshot() []Event {
	out := make([]Event, 0, r.Len())
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}

// Reset empties the ring without releasing its storage.
func (r *Ring) Reset() {
	r.next = 0
	r.wrapped = false
	r.dropped = 0
}

// DumpText renders the snapshot through a TextSink — the human-facing
// form of a flight-recorder dump.
func (r *Ring) DumpText(w io.Writer) {
	sink := NewTextSink(w)
	for _, e := range r.Snapshot() {
		sink.Event(e)
	}
	if r.dropped > 0 {
		sink.L.Line("ring.dropped", Field{"events", r.dropped})
	}
}
