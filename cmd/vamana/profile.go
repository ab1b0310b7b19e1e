package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"vamana"
)

// obsFlags are the observability flags shared by every subcommand that
// opens a database: CPU/heap profiling, a metrics HTTP endpoint, the
// slow-query log and trace sampling.
type obsFlags struct {
	cpuProfile  string
	memProfile  string
	metricsAddr string
	slow        time.Duration
	traceEvery  int
	flight      int
	traceOut    string

	cpuFile *os.File
	db      *vamana.DB
}

func (o *obsFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve the metrics and /debug/vamana endpoints on this address (e.g. localhost:9090)")
	fs.DurationVar(&o.slow, "slow", 0, "log queries at or above this duration to stderr (0 disables)")
	fs.IntVar(&o.traceEvery, "trace", 0, "print an execution trace (with span tree) for 1 in N queries (0 disables)")
	fs.IntVar(&o.flight, "flight", 0, "record spans for every query and keep the last N records (0: sampled and slow queries only, 256 kept)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write recorded traces as Chrome trace-event JSON to this file on exit")
}

// apply threads the slow-query and trace settings into database options.
func (o *obsFlags) apply(opts vamana.Options) vamana.Options {
	if o.slow > 0 {
		opts.SlowQueryThreshold = o.slow
		opts.SlowQueryLog = os.Stderr
	}
	if o.traceEvery > 0 {
		opts.TraceEvery = o.traceEvery
		opts.TraceSink = func(t *vamana.QueryTrace) { _ = t.WriteTree(os.Stderr) }
	}
	if o.flight > 0 {
		opts.FlightRecorderSize = o.flight
	}
	if o.traceOut != "" && opts.FlightRecorderSize == 0 {
		// -trace-out needs recorded traces to export; a small flight
		// recorder captures every query the command runs.
		opts.FlightRecorderSize = 64
	}
	return opts
}

// writeTraceOut exports the flight recorder as a Chrome trace file
// (no-op without -trace-out). Load the file in https://ui.perfetto.dev
// or chrome://tracing.
func (o *obsFlags) writeTraceOut() {
	if o.traceOut == "" || o.db == nil {
		return
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vamana:", err)
		return
	}
	defer f.Close()
	traces := o.db.RecentTraces()
	if err := vamana.WriteChromeTrace(f, traces); err != nil {
		fmt.Fprintln(os.Stderr, "vamana:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %d trace(s) to %s\n", len(traces), o.traceOut)
}

// start begins CPU profiling (if requested). Call the returned stop
// function before exit; it also writes the heap profile.
func (o *obsFlags) start() (func(), error) {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		o.cpuFile = f
	}
	return func() {
		if o.cpuFile != nil {
			pprof.StopCPUProfile()
			o.cpuFile.Close()
		}
		if o.memProfile != "" {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vamana:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vamana:", err)
			}
		}
	}, nil
}

// serveMetrics exposes db's metric and introspection endpoints for the
// lifetime of the command (no-op without -metrics-addr) and remembers
// the database for -trace-out export.
func (o *obsFlags) serveMetrics(db *vamana.DB) {
	o.db = db
	if o.metricsAddr == "" {
		return
	}
	go func() {
		mux := http.NewServeMux()
		mux.Handle("/metrics", db.MetricsHandler())
		// One mount covers both /debug/vamana/* and the stdlib pprof
		// handlers DebugHandler mounts at /debug/pprof/*.
		mux.Handle("/debug/", db.DebugHandler("/debug/vamana"))
		if err := http.ListenAndServe(o.metricsAddr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "vamana: metrics endpoint:", err)
		}
	}()
}
