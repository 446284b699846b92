package telemetry

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLIFlags are the observability flags the study CLIs share: a CPU profile,
// a heap profile, the JSONL span trace and the live metrics listener.
type CLIFlags struct {
	prog                                       string
	cpuProfile, memProfile, trace, metricsAddr string
}

// RegisterCLIFlags defines -cpuprofile, -memprofile, -trace and -metrics-addr
// on fs. Diagnostics are prefixed with fs's name.
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	c := &CLIFlags{prog: fs.Name()}
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&c.trace, "trace", "", "write a JSONL span trace (one line per span; tracetool reads it) to this file")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve live /metrics (Prometheus) and /metrics.json on this address while running")
	return c
}

// Start turns on what the flags ask for around a run observed by reg: the
// CPU profile, a TraceWriter as reg's span sink, and the metrics listener.
// Without -trace, -metrics-addr installs Discard as the sink, so the run
// builds spans and /metrics shows per-kind self time.
// The returned stop undoes them in reverse, writing the heap profile on the
// way, and reports close errors on stderr; defer it once Start succeeds. On
// a setup error Start undoes what it started itself, so a requested heap
// profile is written even when the run fails to start.
func (c *CLIFlags) Start(reg *Registry) (stop func(), err error) {
	var undo []func()
	undoAll := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	defer func() {
		if err != nil {
			undoAll()
		}
	}()

	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("creating CPU profile: %w", err)
		}
		undo = append(undo, func() { f.Close() })
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		undo = append(undo, pprof.StopCPUProfile)
	}
	if c.memProfile != "" {
		undo = append(undo, c.writeHeapProfile)
	}
	if c.trace != "" {
		f, err := os.Create(c.trace)
		if err != nil {
			return nil, fmt.Errorf("creating trace file: %w", err)
		}
		tw := NewTraceWriter(f)
		undo = append(undo, func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: closing trace: %v\n", c.prog, err)
			}
		})
		reg.SetSink(tw)
	} else if c.metricsAddr != "" {
		reg.SetSink(Discard)
	}
	if c.metricsAddr != "" {
		srv, err := ServeMetrics(reg, c.metricsAddr)
		if err != nil {
			return nil, err
		}
		undo = append(undo, func() { srv.Close() })
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", srv.Addr())
	}
	return undoAll, nil
}

func (c *CLIFlags) writeHeapProfile() {
	f, err := os.Create(c.memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: creating heap profile: %v\n", c.prog, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "%s: writing heap profile: %v\n", c.prog, err)
	}
}
