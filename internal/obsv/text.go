package obsv

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Field is one key=value pair of a structured text line.
type Field struct {
	K string
	V any
}

// F64 formats a float compactly for logfmt values.
func fmtValue(v any) string {
	switch x := v.(type) {
	case string:
		if strings.ContainsAny(x, " \t\"=") {
			return strconv.Quote(x)
		}
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case error:
		return strconv.Quote(x.Error())
	default:
		return fmt.Sprint(x)
	}
}

// Logger writes machine-parseable logfmt lines (`name k=v k=v ...`).
// It is the shared formatter behind the text sink and the audit
// verdict output, and is safe for concurrent use.
type Logger struct {
	mu sync.Mutex
	w  io.Writer
	// Prefix, when non-empty, opens every line (e.g. a run label).
	Prefix string
}

// NewLogger returns a Logger writing to w.
func NewLogger(w io.Writer) *Logger { return &Logger{w: w} }

// Line writes one structured record.
func (l *Logger) Line(name string, fields ...Field) {
	var b strings.Builder
	if l.Prefix != "" {
		b.WriteString(l.Prefix)
		b.WriteByte(' ')
	}
	b.WriteString(name)
	for _, f := range fields {
		b.WriteByte(' ')
		b.WriteString(f.K)
		b.WriteByte('=')
		b.WriteString(fmtValue(f.V))
	}
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	io.WriteString(l.w, b.String())
}

// TextSink renders events as logfmt lines through a Logger — the
// human-readable (and grep/awk-parseable) trace form.
type TextSink struct {
	L *Logger
}

// NewTextSink returns a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{L: NewLogger(w)} }

// Event implements Tracer.
func (s *TextSink) Event(e Event) {
	s.L.Line("ev."+e.Type.String(), eventFields(e)...)
}

// eventFields renders an event's payload with type-appropriate names.
func eventFields(e Event) []Field {
	fs := make([]Field, 0, 8)
	if e.Tid != 0 {
		fs = append(fs, Field{"tid", e.Tid})
	}
	fs = append(fs,
		Field{"period", e.Period},
		Field{"cyc", e.Cycles},
		Field{"t", e.TimeS},
	)
	switch e.Type {
	case EvRunBegin:
		fs = append(fs, Field{"engine", engineName(e.Arg)})
	case EvPowerOn:
		fs = append(fs, Field{"charge_s", e.F})
	case EvRestore:
		fs = append(fs, Field{"bytes", e.Arg}, Field{"slot", e.Arg2}, Field{"e_j", e.F})
	case EvCheckpointBegin:
		fs = append(fs, Field{"bytes", e.Arg})
	case EvCheckpointCommit:
		fs = append(fs, Field{"bytes", e.Arg}, Field{"tau_b", e.Arg2}, Field{"e_j", e.F})
	case EvBrownOut:
		fs = append(fs, Field{"dead_cycles", e.Arg}, Field{"active_cycles", e.Arg2})
	case EvRunEnd:
		fs = append(fs, Field{"completed", e.Arg == 1})
	case EvDeadline:
		fs = append(fs, Field{"boundary_cyc", e.Arg})
	case EvBatchHorizon:
		fs = append(fs, Field{"budget", e.Arg}, Field{"strategy_horizon", horizonStr(e.Arg2)})
	case EvFastForward:
		fs = append(fs, Field{"periods", e.Arg}, Field{"cycles_per_period", e.Arg2})
	case EvTrigger:
		fs = append(fs, Field{"reason", TriggerReason(e.Arg).String()}, Field{"detail", e.Arg2})
	case EvWARFlush:
		fs = append(fs, Field{"occupancy", e.Arg}, Field{"reason", TriggerReason(e.Arg2).String()})
	case EvFaultTear:
		fs = append(fs, Field{"injected", e.Arg2 == 1})
	case EvFaultBitFlips:
		fs = append(fs, Field{"bits", e.Arg})
	case EvCRCReject:
		fs = append(fs, Field{"slot", e.Arg})
	case EvStaleRestore:
		fs = append(fs, Field{"slot", e.Arg}, Field{"forced", e.Arg2 == 1})
	case EvUnrecoverable:
		fs = append(fs, Field{"restore_seq", e.Arg}, Field{"lost_stores", e.Arg2})
	}
	return fs
}

func engineName(v uint64) string {
	if v == 1 {
		return "batched"
	}
	return "reference"
}

func horizonStr(v uint64) string {
	if v == ^uint64(0) {
		return "inf"
	}
	return strconv.FormatUint(v, 10)
}
