// Package profiling wires the standard performance-inspection hooks
// into the CLIs: CPU and heap profiles written on exit, an opt-in HTTP
// endpoint serving expvar counters and net/http/pprof handlers, and
// the run-wide trace and metrics sinks (sinks.go). Everything is off
// unless its flag is set, so the simulators pay nothing by default.
package profiling

import (
	_ "expvar" // registers /debug/vars on the default mux
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profiling options a CLI exposes.
type Flags struct {
	CPUProfile string
	MemProfile string
	PprofAddr  string
}

// Register installs the standard flag set (-cpuprofile, -memprofile,
// -pprof) on the default FlagSet.
func (f *Flags) Register() {
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&f.PprofAddr, "pprof", "", "serve expvar and net/http/pprof on this address (e.g. localhost:6060)")
}

// Start begins CPU profiling and the debug HTTP server per the flags.
// The returned stop function finishes the CPU profile and writes the
// heap profile; call it exactly once, on every exit path (defer it
// right after Start succeeds).
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	if f.PprofAddr != "" {
		// The expvar and net/http/pprof imports registered their
		// handlers on the default mux; serving it is all that is left.
		// The server lives for the process — there is nothing to tear
		// down gracefully on a CLI exit.
		go func() {
			if err := http.ListenAndServe(f.PprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "profiling: pprof endpoint:", err)
			}
		}()
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(mf); err != nil {
				mf.Close()
				return fmt.Errorf("profiling: %w", err)
			}
			if err := mf.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		return nil
	}, nil
}
