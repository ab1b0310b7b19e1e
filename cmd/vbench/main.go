// Command vbench regenerates the paper's evaluation figures (§VIII):
// execution time of queries Q1-Q5 across engines and XMark document
// sizes, plus the optimizer-overhead series.
//
//	vbench                                  # default sweep (1,5,10 MB)
//	vbench -sizes 1,5,10,20,30 -faithful    # the paper's sweep with
//	                                        # published capacity limits
//	vbench -queries Q1,Q5 -engines VQP,VQP-OPT -repeat 5
//	vbench -batch 1 -out scripts/out/vbench_tuple.txt
//	                                        # tuple-at-a-time executor,
//	                                        # report under scripts/out/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"vamana/internal/bench"
	"vamana/internal/core"
	"vamana/internal/exec"
	"vamana/internal/govern"
	"vamana/internal/mass"
	"vamana/internal/obs"
)

func main() {
	var (
		sizesFlag   = flag.String("sizes", "1,5,10", "document sizes in MB, comma separated")
		queriesFlag = flag.String("queries", "Q1,Q2,Q3,Q4,Q5", "workload queries to run")
		enginesFlag = flag.String("engines", "Galax,Jaxen,eXist,VQP,VQP-OPT", "engines to compare")
		repeat      = flag.Int("repeat", 3, "timed repetitions per point (best is reported)")
		seed        = flag.Int64("seed", 42, "XMark generator seed")
		faithful    = flag.Bool("faithful", false, "apply the paper's published per-engine capacity limits")
		overhead    = flag.Bool("overhead", true, "also report optimization overhead per query")
		mem         = flag.Bool("mem", false, "also report per-engine memory footprints")
		batch       = flag.Int("batch", 0, "executor pull-batch size for the VAMANA engines (0 = engine default; 1 = tuple-at-a-time)")
		jsonOut     = flag.Bool("json", false, "emit the benchmark table as JSON (with cache hit-ratio and batch-size columns)")
		outPath     = flag.String("out", "", "write the report to this file instead of stdout (keep generated runs under scripts/out/, which is gitignored)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsAddr = flag.String("metrics-addr", "", "serve the global metrics endpoint on this address")
		traceOut    = flag.String("trace-out", "", "after the sweep, run each query once traced and write Chrome trace JSON to this file")
	)
	flag.Parse()

	if *remoteURL != "" {
		runRemote()
		return
	}

	if *metricsAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/metrics", obs.Handler())
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "vbench: metrics endpoint:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vbench:", err)
			}
		}()
	}

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fatal(err)
	}
	queries, err := parseQueries(*queriesFlag)
	if err != nil {
		fatal(err)
	}
	engines, err := parseEngines(*enginesFlag)
	if err != nil {
		fatal(err)
	}

	// Reports go to stdout by default; -out redirects them to a file so
	// generated runs live under scripts/out/ instead of the repo root.
	var out io.Writer = os.Stdout
	if *outPath != "" {
		if dir := filepath.Dir(*outPath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	if !*jsonOut {
		fmt.Fprintf(out, "VAMANA evaluation harness — XMark seed %d, %d repetition(s), faithful limits: %v, exec batch: %d\n\n",
			*seed, *repeat, *faithful, effectiveBatch(*batch))
	}

	var fixtures []*bench.Fixture
	for _, mb := range sizes {
		fmt.Fprintf(os.Stderr, "generating and indexing %d MB fixture...\n", mb)
		f, err := bench.NewFixtureExecBatch(mb<<20, *seed, *faithful, *batch)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		fixtures = append(fixtures, f)
	}
	fmt.Fprintln(os.Stderr)

	if *jsonOut {
		if err := emitJSON(out, fixtures, queries, engines, *repeat, *seed, *faithful, effectiveBatch(*batch)); err != nil {
			fatal(err)
		}
		return
	}

	for _, q := range queries {
		results := bestOf(fixtures, q, engines, *repeat)
		fmt.Fprintln(out, bench.FormatFigure(q, results, engines))
	}

	if *overhead {
		printOverhead(out, fixtures, queries)
	}
	printEstimateQuality(out, fixtures, queries)
	if *mem {
		fmt.Fprintln(out)
		for _, f := range fixtures {
			var results []bench.MemoryResult
			for _, e := range []bench.Engine{bench.EngineJaxen, bench.EngineGalax, bench.EngineEXist, bench.EngineVQP} {
				results = append(results, bench.MeasureEngineMemory(f.Source(), e))
			}
			fmt.Fprintln(out, bench.FormatMemoryTable(results))
		}
	}

	if *traceOut != "" {
		if err := writeTraces(*traceOut, fixtures, queries); err != nil {
			fatal(err)
		}
	}
}

// writeTraces runs each workload query once per fixture with span
// recording on (after the timed sweep, so tracing never perturbs the
// reported numbers) and writes the collected traces as a Chrome
// trace-event file for Perfetto / chrome://tracing.
func writeTraces(path string, fixtures []*bench.Fixture, queries []bench.Query) error {
	var traces []*obs.QueryTrace
	for _, f := range fixtures {
		ts, err := traceFixture(f, queries)
		if err != nil {
			return err
		}
		traces = append(traces, ts...)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := obs.WriteChromeTrace(out, traces); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d trace(s) to %s — open in https://ui.perfetto.dev\n", len(traces), path)
	return nil
}

// traceFixture runs the queries once on a flight-recorded engine of its
// own over f's document — the timed sweep's engine stays untraced — and
// returns their traces in run order.
func traceFixture(f *bench.Fixture, queries []bench.Query) ([]*obs.QueryTrace, error) {
	engine, err := core.Open(core.Options{FlightRecorderSize: len(queries)})
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	doc, err := engine.LoadString("auction", f.Source())
	if err != nil {
		return nil, err
	}
	for _, q := range queries {
		it, err := engine.QueryContext(context.Background(), doc, q.XPath, govern.Limits{})
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", q.ID, err)
		}
		for it.Next() {
		}
		it.Close()
	}
	// The ring snapshot is newest first.
	ts := engine.Traces()
	slices.Reverse(ts)
	return ts, nil
}

// bestOf repeats each point and keeps the fastest successful run —
// standard practice for wall-clock microbenchmarks.
func bestOf(fixtures []*bench.Fixture, q bench.Query, engines []bench.Engine, repeat int) []bench.Result {
	var out []bench.Result
	for _, f := range fixtures {
		for _, e := range engines {
			best := f.Run(e, q)
			for i := 1; i < repeat && best.Err == nil; i++ {
				r := f.Run(e, q)
				if r.Err == nil && r.Duration < best.Duration {
					best = r
				}
			}
			out = append(out, best)
		}
	}
	return out
}

// jsonRow is one benchmark point in -json output. The hit-ratio and
// batch-size columns are present only for the VAMANA engines (VQP,
// VQP-OPT): the page-cache ratio covers index-node loads during the
// point's runs, the memo ratio covers the optimizer's statistics probes
// (VQP-OPT only), and batch_size is the executor pull-batch size the
// point ran with.
type jsonRow struct {
	Query             string   `json:"query"`
	XPath             string   `json:"xpath"`
	Engine            string   `json:"engine"`
	SizeMB            int      `json:"size_mb"`
	BatchSize         int      `json:"batch_size,omitempty"`
	Count             int      `json:"count"`
	DurationNS        int64    `json:"duration_ns"`
	OptTimeNS         int64    `json:"opt_time_ns,omitempty"`
	Error             string   `json:"error,omitempty"`
	PageCacheHitRatio *float64 `json:"page_cache_hit_ratio,omitempty"`
	MemoHitRatio      *float64 `json:"memo_hit_ratio,omitempty"`
	// Estimate quality (VAMANA engines only): the geometric-mean q-error
	// over the plan's step operators and the worst-misestimated operator
	// with its q-error, from one analyzed run after the timed sweep.
	GeomeanQError *float64 `json:"geomean_q_error,omitempty"`
	WorstOp       string   `json:"worst_op,omitempty"`
	WorstQError   *float64 `json:"worst_q_error,omitempty"`
}

type jsonReport struct {
	Seed      int64     `json:"seed"`
	Repeat    int       `json:"repeat"`
	Faithful  bool      `json:"faithful"`
	BatchSize int       `json:"batch_size"`
	Results   []jsonRow `json:"results"`
}

// effectiveBatch mirrors the executor's clamping of the configured batch
// size so reports record the size actually used.
func effectiveBatch(b int) int {
	switch {
	case b <= 0:
		return exec.DefaultBatch
	case b > exec.MaxBatch:
		return exec.MaxBatch
	default:
		return b
	}
}

// emitJSON runs the sweep and writes it as one JSON document, capturing
// storage and plan-cache counter deltas around each point to derive the
// hit-ratio columns.
func emitJSON(w io.Writer, fixtures []*bench.Fixture, queries []bench.Query, engines []bench.Engine, repeat int, seed int64, faithful bool, batch int) error {
	rep := jsonReport{Seed: seed, Repeat: repeat, Faithful: faithful, BatchSize: batch, Results: []jsonRow{}}
	for _, q := range queries {
		for _, f := range fixtures {
			for _, e := range engines {
				rep.Results = append(rep.Results, runPointJSON(f, e, q, repeat, batch))
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func runPointJSON(f *bench.Fixture, e bench.Engine, q bench.Query, repeat, batch int) jsonRow {
	eng, _ := f.VamanaEngine()
	vamanaEngine := e == bench.EngineVQP || e == bench.EngineVQPOpt
	var sm0 mass.StoreMetrics
	var cs0 core.CacheStats
	if vamanaEngine {
		sm0 = eng.Store().Metrics()
		cs0 = eng.CacheStats()
	}
	best := f.Run(e, q)
	for i := 1; i < repeat && best.Err == nil; i++ {
		r := f.Run(e, q)
		if r.Err == nil && r.Duration < best.Duration {
			best = r
		}
	}
	row := jsonRow{
		Query:      q.ID,
		XPath:      q.XPath,
		Engine:     string(e),
		SizeMB:     f.SizeBytes >> 20,
		Count:      best.Count,
		DurationNS: best.Duration.Nanoseconds(),
		OptTimeNS:  best.OptTime.Nanoseconds(),
	}
	if vamanaEngine {
		row.BatchSize = batch
	}
	if best.Err != nil {
		row.Error = best.Err.Error()
	}
	if vamanaEngine && best.Err == nil {
		sm1 := eng.Store().Metrics()
		cs1 := eng.CacheStats()
		row.PageCacheHitRatio = hitRatio(sm1.Index.CacheHits-sm0.Index.CacheHits,
			sm1.Index.CacheMisses-sm0.Index.CacheMisses)
		if e == bench.EngineVQPOpt {
			row.MemoHitRatio = hitRatio(cs1.ProbeHits-cs0.ProbeHits, cs1.ProbeMisses-cs0.ProbeMisses)
		}
		eq, err := measureEstimateQuality(eng, q.XPath, e == bench.EngineVQPOpt, f)
		if err == nil && eq.samples > 0 {
			g, wq := eq.geomean, eq.worstQ
			row.GeomeanQError, row.WorstOp, row.WorstQError = &g, eq.worstOp, &wq
		}
	}
	return row
}

// estimateQuality summarizes one analyzed run's est-vs-act accuracy.
type estimateQuality struct {
	samples int
	geomean float64 // geometric mean q-error over step operators
	worstOp string
	worstQ  float64
}

// measureEstimateQuality analyzes expr once (untimed, after the point's
// measured runs) and folds each step's estimated OUT against its actual
// OUT into a geometric-mean q-error plus the worst operator.
func measureEstimateQuality(eng *core.Engine, expr string, optimized bool, f *bench.Fixture) (estimateQuality, error) {
	_, doc := f.VamanaEngine()
	q, err := eng.CompileCached(doc, expr, optimized)
	if err != nil {
		return estimateQuality{}, err
	}
	a, err := q.Analyze(nil, doc)
	if err != nil {
		return estimateQuality{}, err
	}
	var eq estimateQuality
	var sumLog float64
	for _, st := range a.Stats {
		if st.Op == nil || !st.Op.Cost.Done {
			continue
		}
		qerr := obs.QError(st.Op.Cost.Out, st.Out)
		sumLog += math.Log2(qerr)
		eq.samples++
		if qerr > eq.worstQ {
			eq.worstQ, eq.worstOp = qerr, st.Op.Label()
		}
	}
	if eq.samples > 0 {
		eq.geomean = math.Exp2(sumLog / float64(eq.samples))
	}
	return eq, nil
}

// hitRatio returns hits/(hits+misses), or nil when the point generated no
// traffic against the cache at all.
func hitRatio(hits, misses uint64) *float64 {
	total := hits + misses
	if total == 0 {
		return nil
	}
	r := float64(hits) / float64(total)
	return &r
}

func printOverhead(out io.Writer, fixtures []*bench.Fixture, queries []bench.Query) {
	fmt.Fprintln(out, "Optimization overhead (compile + statistics probes + rewriting) vs. optimized execution.")
	fmt.Fprintln(out, "'cached' is the same compilation served from the engine's plan cache (the DB.Query fast")
	fmt.Fprintln(out, "path); its ratio is what a serving workload actually pays per repeated query.")
	fmt.Fprintf(out, "%-10s%-6s%14s%14s%14s%10s%14s\n", "size", "query", "optimize", "cached", "execute", "ratio", "cached-ratio")
	for _, f := range fixtures {
		eng, doc := f.VamanaEngine()
		for _, q := range queries {
			r := f.Run(bench.EngineVQPOpt, q)
			if r.Err != nil {
				continue
			}
			cached, err := timeCachedCompile(eng, doc, q.XPath)
			if err != nil {
				continue
			}
			ratio := float64(r.OptTime) / float64(r.Duration)
			cachedRatio := float64(cached) / float64(r.Duration)
			fmt.Fprintf(out, "%-10s%-6s%14s%14s%14s%9.2f%%%13.2f%%\n",
				fmt.Sprintf("%dMB", f.SizeBytes>>20), q.ID,
				r.OptTime.Round(time.Microsecond), cached.Round(time.Nanosecond),
				r.Duration.Round(time.Microsecond), 100*ratio, 100*cachedRatio)
		}
	}
}

// printEstimateQuality renders the cost model's est-vs-act accuracy per
// query: geometric-mean q-error over the optimized plan's steps and the
// worst-misestimated operator. One untimed analyzed run per point.
func printEstimateQuality(out io.Writer, fixtures []*bench.Fixture, queries []bench.Query) {
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Estimate quality (VQP-OPT): geometric-mean q-error = max(est/act, act/est) over the")
	fmt.Fprintln(out, "plan's step operators (1.0 = exact), and the step whose estimate missed by the most.")
	fmt.Fprintf(out, "%-10s%-6s%10s%10s  %s\n", "size", "query", "geomean-q", "worst-q", "worst operator")
	for _, f := range fixtures {
		eng, _ := f.VamanaEngine()
		for _, q := range queries {
			eq, err := measureEstimateQuality(eng, q.XPath, true, f)
			if err != nil || eq.samples == 0 {
				continue
			}
			fmt.Fprintf(out, "%-10s%-6s%10.2f%10.2f  %s\n",
				fmt.Sprintf("%dMB", f.SizeBytes>>20), q.ID, eq.geomean, eq.worstQ, eq.worstOp)
		}
	}
}

// timeCachedCompile measures a warm plan-cache lookup for expr: the
// compile-side cost DB.Query pays per call once the plan is cached.
func timeCachedCompile(eng *core.Engine, doc mass.DocID, expr string) (time.Duration, error) {
	if _, err := eng.CompileCached(doc, expr, true); err != nil {
		return 0, err
	}
	const iters = 1000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := eng.CompileCached(doc, expr, true); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / iters, nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("vbench: bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseQueries(s string) ([]bench.Query, error) {
	var out []bench.Query
	for _, part := range strings.Split(s, ",") {
		q, ok := bench.QueryByID(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf("vbench: unknown query %q", part)
		}
		out = append(out, q)
	}
	return out, nil
}

func parseEngines(s string) ([]bench.Engine, error) {
	var out []bench.Engine
	for _, part := range strings.Split(s, ",") {
		e := bench.Engine(strings.TrimSpace(part))
		valid := false
		for _, known := range bench.AllEngines {
			if e == known {
				valid = true
			}
		}
		if !valid {
			return nil, fmt.Errorf("vbench: unknown engine %q", part)
		}
		out = append(out, e)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vbench:", err)
	os.Exit(1)
}
