package profiling

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"ehmodel/internal/device"
	"ehmodel/internal/obsv"
)

// Sinks are a CLI's run-wide observability outputs for every device it
// builds, however many call layers down (sweep cells, audited
// schedules, a single run): -trace puts every device's lifecycle on its
// own thread of one Chrome trace_event timeline, and -metrics gives
// every device a loss-free Metrics sink of one collector, merged at
// export.
type Sinks struct {
	traceFile, metricsFile string
	chrome                 *obsv.ChromeSink // nil without -trace
	coll                   *obsv.Collector  // nil without -metrics
	tid                    atomic.Int32
}

// OpenSinks creates the trace file and the metrics collector the two
// names ask for; an empty name leaves that sink off.
func OpenSinks(traceFile, metricsFile string) (*Sinks, error) {
	s := &Sinks{traceFile: traceFile, metricsFile: metricsFile}
	if metricsFile != "" {
		s.coll = obsv.NewCollector()
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, err
		}
		s.chrome = obsv.NewChromeSink(f)
	}
	return s, nil
}

// WithEnv returns ctx carrying env (the engine and deadline of every
// device) with, when a sink is open, an Observe provider handing each
// device its own thread of the Chrome timeline and its own Metrics
// sink.
func (s *Sinks) WithEnv(ctx context.Context, env device.Env) context.Context {
	if s.chrome != nil || s.coll != nil {
		env.Observe = s.tracer
	}
	return device.WithEnv(ctx, env)
}

func (s *Sinks) tracer() obsv.Tracer {
	var ts []obsv.Tracer
	if s.chrome != nil {
		ts = append(ts, obsv.WithTid(s.chrome, s.tid.Add(1)))
	}
	if s.coll != nil {
		ts = append(ts, s.coll.Tracer())
	}
	return obsv.Combine(ts...)
}

// Close finalizes the Chrome trace and, with -metrics, merges every
// device's sink, lets annotate (which may be nil) add what no device
// saw — cache counters, failure classes, verdicts — and writes the
// file. Call it once the devices are done; it reports each file it
// wrote and returns the first error.
func (s *Sinks) Close(annotate func(*obsv.Metrics)) error {
	var err error
	if s.chrome != nil {
		if err = s.chrome.Close(); err == nil {
			fmt.Printf("wrote Chrome trace to %s\n", s.traceFile)
		}
	}
	if s.coll != nil {
		m := s.coll.Aggregate()
		if annotate != nil {
			annotate(m)
		}
		if werr := writeMetrics(s.metricsFile, m); err == nil {
			err = werr
		}
	}
	return err
}

// writeMetrics exports m as CSV, or JSON when the file name says so.
func writeMetrics(path string, m *obsv.Metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = m.WriteJSON(f)
	} else {
		err = m.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Printf("wrote metrics to %s\n", path)
	}
	return err
}
