package obsv

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// ChromeSink writes the Chrome trace_event JSON format, loadable in
// chrome://tracing and https://ui.perfetto.dev. Active periods and
// checkpoints become duration (B/E) spans, charge phases become
// complete (X) events, and everything else becomes an instant, so a
// power trace reads as alternating charge/active blocks with backup
// slices nested inside the active ones.
//
// The sink is mutex-guarded: concurrent sweep devices may share one
// sink as long as each is wrapped in WithTid so its spans land on a
// distinct trace thread. Close must be called to finalize the JSON.
type ChromeSink struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	first  bool
	// per-tid open-span state, so unbalanced sequences (a run dying
	// mid-checkpoint) still produce well-formed B/E nesting.
	open map[int32]*chromeOpen
}

type chromeOpen struct {
	active bool
	ckpt   bool
}

// NewChromeSink starts a trace_event stream on w. If w is also an
// io.Closer, Close closes it after finalizing the JSON.
func NewChromeSink(w io.Writer) *ChromeSink {
	s := &ChromeSink{w: bufio.NewWriter(w), first: true, open: map[int32]*chromeOpen{}}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	s.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return s
}

func (s *ChromeSink) state(tid int32) *chromeOpen {
	st := s.open[tid]
	if st == nil {
		st = &chromeOpen{}
		s.open[tid] = st
	}
	return st
}

// Event implements Tracer.
func (s *ChromeSink) Event(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := e.TimeS * 1e6 // trace_event timestamps are microseconds
	st := s.state(e.Tid)
	switch e.Type {
	case EvPowerOn:
		if e.F > 0 {
			s.emit(e.Tid, "X", "charge", ts-e.F*1e6, e.F*1e6, argPairs{{"period", uint64(uint32(e.Period))}})
		}
		s.emit(e.Tid, "B", "active", ts, 0, argPairs{{"period", uint64(uint32(e.Period))}})
		st.active = true
	case EvCheckpointBegin:
		s.emit(e.Tid, "B", "checkpoint", ts, 0, argPairs{{"bytes", e.Arg}})
		st.ckpt = true
	case EvCheckpointCommit:
		if st.ckpt {
			s.emit(e.Tid, "E", "checkpoint", ts, 0, argPairs{{"bytes", e.Arg}, {"tau_b_cycles", e.Arg2}})
			st.ckpt = false
		}
	case EvCheckpointFail:
		if st.ckpt {
			s.emit(e.Tid, "E", "checkpoint", ts, 0, argPairs{{"failed", 1}})
			st.ckpt = false
		}
	case EvBrownOut, EvHalt, EvRunEnd, EvDeadline:
		if st.ckpt {
			s.emit(e.Tid, "E", "checkpoint", ts, 0, nil)
			st.ckpt = false
		}
		if st.active {
			var args argPairs
			if e.Type == EvBrownOut {
				args = argPairs{{"dead_cycles", e.Arg}, {"active_cycles", e.Arg2}}
			}
			s.emit(e.Tid, "E", "active", ts, 0, args)
			st.active = false
		}
		if e.Type != EvBrownOut {
			s.instant(e, ts)
		}
	default:
		s.instant(e, ts)
	}
}

func (s *ChromeSink) instant(e Event, ts float64) {
	s.emit(e.Tid, "i", e.Type.String(), ts, 0, argPairs{{"arg", e.Arg}, {"arg2", e.Arg2}})
}

type argPairs []struct {
	k string
	v uint64
}

func (s *ChromeSink) emit(tid int32, ph, name string, ts, dur float64, args argPairs) {
	if s.first {
		s.first = false
	} else {
		s.w.WriteByte(',')
	}
	fmt.Fprintf(s.w, `{"name":%q,"cat":"eh","ph":%q,"pid":1,"tid":%d,"ts":%s`,
		name, ph, tid, jsonFloat(ts))
	if ph == "X" {
		fmt.Fprintf(s.w, `,"dur":%s`, jsonFloat(dur))
	}
	if ph == "i" {
		s.w.WriteString(`,"s":"t"`)
	}
	if len(args) > 0 {
		s.w.WriteString(`,"args":{`)
		for i, a := range args {
			if i > 0 {
				s.w.WriteByte(',')
			}
			fmt.Fprintf(s.w, `%q:%d`, a.k, a.v)
		}
		s.w.WriteByte('}')
	}
	s.w.WriteByte('}')
}

// jsonFloat renders a timestamp without exponent notation (Perfetto's
// legacy JSON importer is picky about scientific notation in ts).
func jsonFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// WriteSpansChrome renders a frozen request trace in the same Chrome
// trace_event format the device sink above emits, so a span tree opens
// in chrome://tracing / Perfetto next to device timelines. Every span
// becomes a complete ("X") event on one thread; the viewers derive
// nesting from time containment, which holds because child spans live
// inside their parents. Timestamps are microseconds from trace start.
func WriteSpansChrome(w io.Writer, td *TraceData) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i := range td.Spans {
		sp := &td.Spans[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		ts := float64(sp.Start.Sub(td.Start).Nanoseconds()) / 1e3
		dur := float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e3
		fmt.Fprintf(bw, `{"name":%q,"cat":"eh-request","ph":"X","pid":1,"tid":1,"ts":%s,"dur":%s`,
			sp.Name, jsonFloat(ts), jsonFloat(dur))
		bw.WriteString(`,"args":{"span_id":` + strconv.FormatUint(uint64(sp.ID), 10) + `,"parent":` + strconv.FormatUint(uint64(sp.Parent), 10))
		for _, a := range sp.Attrs {
			fmt.Fprintf(bw, `,%q:%q`, a.Key, a.Val)
		}
		bw.WriteString(`}}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// Close terminates the JSON document, flushes it and closes the
// underlying writer when it is closable; it returns the first write
// error of the whole stream (the buffered writer keeps it). The sink
// must not be used afterwards.
func (s *ChromeSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.WriteString(`]}`)
	s.w.WriteByte('\n')
	err := s.w.Flush()
	if s.closer != nil {
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
