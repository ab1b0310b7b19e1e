// Command benchmark is the VAMANA benchmark: six workloads, the
// end-to-end metrics a user of the engine or of vamanad would see, and a
// traced run that splits an operation's cost across the modules.
//
//	bash benchmark/run.sh --workload scan_hot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                 # every workload, tracing off
//	bash benchmark/run.sh --trace 1       # every workload, per-layer metrics and span files
//	bash benchmark/run.sh -aa 5           # five complete sets: medians, quartiles, spread against the bounds
//
// See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric; BENCHMARK.json lists the same names and
// units, and the smoke test holds the two together.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_tail_us", "us"},
	{"first_result_p50_us", "us"},
	{"heap_live_mb", "MB"},
	{"stored_bytes_per_xml_byte", "B/B"},
}

var perLayer = []metricDef{
	{"pager.reads_per_op", "count"}, {"pager.writes_per_txn", "count"}, {"pager.commits_per_txn", "count"},
	{"pager.pages_stashed_per_txn", "count"}, {"pager.write_bytes_per_txn", "B"},
	{"pager.read_ns_per_page", "ns"}, {"pager.write_ns_per_page", "ns"}, {"pager.flush_us", "us"},
	{"btree.node_loads_per_op", "count"}, {"btree.cache_hit_ratio", "ratio"}, {"btree.evictions_per_op", "count"},
	{"btree.seeks_per_op", "count"}, {"btree.counts_per_op", "count"}, {"btree.splits_per_txn", "count"},
	{"btree.put_ns_per_key", "ns"}, {"btree.seek_ns", "ns"}, {"btree.scan_ns_per_key", "ns"}, {"btree.count_ns", "ns"},
	{"flex.compare_ns", "ns"}, {"flex.ancestor_test_ns", "ns"},
	{"xmldoc.parse_ns_per_byte", "ns"},
	{"mass.load_ns_per_byte", "ns"}, {"mass.axis_scan_ns_per_key", "ns"}, {"mass.node_fetch_ns", "ns"},
	{"mass.count_name_ns", "ns"}, {"mass.records_decoded_per_result", "count"}, {"mass.stat_probes_per_op", "count"},
	{"xpath.parse_us", "us"}, {"plan.build_us", "us"}, {"opt.optimize_us", "us"}, {"cost.stat_probes_per_compile", "count"},
	{"exec.run_us", "us"}, {"exec.first_us", "us"}, {"exec.tuples_per_result", "count"}, {"exec.allocs_per_op", "count"},
	{"core.run_us", "us"}, {"core.overhead_us", "us"}, {"core.compile_us", "us"}, {"core.snapshot_us", "us"},
	{"core.plan_cache_hit_ratio", "ratio"}, {"core.probe_memo_hit_ratio", "ratio"}, {"core.allocs_per_op", "count"},
	{"vamana.run_us", "us"}, {"vamana.overhead_us", "us"}, {"vamana.update_us", "us"},
	{"vamana.update_p50_us", "us"}, {"vamana.update_p99_us", "us"},
	{"vamana.allocs_per_op", "count"}, {"vamana.bytes_per_op", "B"},
	{"serve.handler_us", "us"}, {"serve.handler_overhead_us", "us"}, {"serve.http_us", "us"},
	{"serve.socket_overhead_us", "us"}, {"serve.allocs_per_op", "count"},
	{"serve.queue_wait_p50_us", "us"}, {"serve.ttfb_p50_us", "us"}, {"serve.rejected_share", "ratio"},
	{"serve.bytes_per_result", "B"},
	{"govern.limits_overhead_ratio", "ratio"}, {"obs.flight_recorder_overhead_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"}, {"bench.generator_lag_p99_us", "us"}, {"bench.op_p99_us", "us"},
}

// stamp identifies the code, the machine and the inputs of a record.
type stamp struct {
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the stamped line printed before it, with what the result's
// fixed shape has no room for.
type record struct {
	Stamp       stamp              `json:"stamp"`
	Workload    string             `json:"workload"`
	Trace       bool               `json:"trace"`
	FailedShare float64            `json:"failed_share"`
	Samples     map[string]int     `json:"samples,omitempty"`
	Classes     map[string]float64 `json:"class_p50_us,omitempty"`
	Phases      map[string]float64 `json:"phase_shares,omitempty"`
	OracleS     float64            `json:"oracle_s"`
	TraceFile   string             `json:"trace_file,omitempty"`
	Error       string             `json:"error,omitempty"`
	result
}

type runOpts struct {
	seed       int64
	seconds    float64
	trace      bool
	big, small int
	setups     int // how many times set-up runs; setup_s is the median
	dir        string
	timer      timer // how long the traced run's ladder measures
}

func defaultOpts() runOpts {
	return runOpts{seed: 1, seconds: 10, big: 4 << 20, small: 1 << 20, setups: 3, dir: filepath.Join("benchmark", "out"),
		timer: timer{rounds: 5, budget: 8 * time.Millisecond}}
}

func main() {
	o := defaultOpts()
	var workload string
	var trace, aa int
	flag.StringVar(&workload, "workload", "", "workload to run (default: all six, one after the other)")
	flag.Int64Var(&o.seed, "seed", o.seed, "fixes the XMark document, the query order, the literals and the update targets")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, which reports the per-layer metrics and writes the span file")
	flag.IntVar(&aa, "aa", 0, "run this many complete untraced sets and print medians, quartiles and spread against the bounds")
	flag.StringVar(&o.dir, "out", o.dir, "directory for span files and scratch page files")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments or non-positive --seconds")
		os.Exit(2)
	}

	defs := workloads
	if workload != "" {
		w, ok := workloadByName(workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", workload)
			os.Exit(2)
		}
		defs = []workloadDef{w}
	}
	if aa > 0 {
		o.trace = false
		if !runAA(defs, o, aa) {
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, def := range defs {
		rec := runWorkload(def, o)
		printHuman(os.Stderr, rec)
		emit(rec)
		ok = ok && rec.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func emit(rec *record) {
	full, _ := json.Marshal(rec)
	last, _ := json.Marshal(rec.result)
	fmt.Printf("%s\n%s\n", full, last)
}

func newStamp(o runOpts) stamp {
	return stamp{
		Commit:     gitCommit(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       o.seed,
		Seconds:    o.seconds,
	}
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository is stamped "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+ref); ok {
				return hash
			}
		}
	}
	return "unknown"
}

// runWorkload sets the workload up, checks it against the oracle, and
// measures it: the end-to-end metrics with tracing off, or the per-layer
// metrics with it on.
func runWorkload(def workloadDef, o runOpts) *record {
	rec := &record{Stamp: newStamp(o), Workload: def.name, Trace: o.trace, Samples: map[string]int{}}
	rec.Metrics = map[string]metricValue{}
	fail := func(err error) *record {
		rec.Correct = false
		rec.Error = err.Error()
		if rec.Attempted == 0 {
			rec.Attempted = 1
		}
		rec.Failed++
		rec.FailedShare = float64(rec.Failed) / float64(rec.Attempted)
		return rec
	}

	env := setupEnv{seed: o.seed, big: o.big, small: o.small, dir: o.dir, nproc: runtime.NumCPU()}
	var inst *instance
	var setupS []float64
	// A set-up of a few hundredths of a second is repeated more often, so
	// that the median of a quick set-up is as steady as that of a slow one.
	for i, spent := 0, 0.0; i < o.setups || (i < 3*o.setups && o.setups > 1 && spent < 1); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return fail(fmt.Errorf("close after set-up: %w", err))
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(env); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		spent += setupS[i]
	}
	defer func() {
		if err := inst.close(); err != nil && rec.Error == "" {
			fail(fmt.Errorf("close: %w", err))
		}
	}()

	t0 := time.Now()
	if err := verify(inst); err != nil {
		return fail(err)
	}
	rec.OracleS = time.Since(t0).Seconds()
	seconds := time.Duration(o.seconds * float64(time.Second))
	settle := seconds / 10
	values := map[string]float64{}
	var win *window
	if !o.trace {
		inst.src = ""
		win = runWindow(inst, o.seed, settle, seconds, false)
		values["setup_s"] = median(setupS)
		values["ops_per_s"] = win.opsPerS
		values["op_p50_us"] = win.p50
		values["op_tail_us"] = win.tail
		values["first_result_p50_us"] = win.firstP50
		values["stored_bytes_per_xml_byte"] = float64(inst.db.StorageMetrics().Pager.Pages) * 8192 / float64(inst.xmlBytes)
		values["heap_live_mb"] = heapLiveMB()
		rec.Samples["op"] = win.samples
		rec.Samples["setup_s"] = len(setupS)
		if win.update != nil {
			rec.Samples["update"] = win.update.n
		}
	} else {
		plain := runWindow(inst, o.seed, settle, seconds/4, false)
		win = runWindow(inst, o.seed+1, settle, seconds/2, true)
		counterMetrics(win, values)
		win.attempted += plain.attempted
		win.failed += plain.failed
		if win.firstErr == nil {
			win.firstErr = plain.firstErr
		}
		values["bench.op_p99_us"] = win.p99
		if win.opsPerS > 0 {
			values["bench.trace_overhead_ratio"] = plain.opsPerS / win.opsPerS
		}
		rec.Phases = phaseShares(win.spans)
		path, err := writeTrace(o.dir, def.name, rec.Stamp, win.spans)
		if err != nil {
			return fail(fmt.Errorf("span file: %w", err))
		}
		rec.TraceFile = path
		win.spans = nil

		in, err := layerInputFor(inst, o)
		if err != nil {
			return fail(err)
		}
		inst.src = ""
		layers, err := measureLayers(in)
		if err != nil {
			return fail(fmt.Errorf("layers: %w", err))
		}
		for k, v := range layers {
			values[k] = v
		}
	}
	rec.Classes = map[string]float64{}
	for _, cs := range win.perClass {
		rec.Classes[cs.name] = cs.p50
	}

	rec.Attempted, rec.Failed = win.attempted, win.failed
	firstErr := win.firstErr
	if inst.finish != nil {
		rec.Attempted++
		if err := inst.finish(); err != nil {
			rec.Failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if rec.Attempted == 0 {
		rec.Attempted = 1
		rec.Failed = 1
		firstErr = fmt.Errorf("no operation completed inside the window")
	}
	rec.FailedShare = float64(rec.Failed) / float64(rec.Attempted)
	rec.Correct = rec.Failed == 0
	if firstErr != nil {
		rec.Error = firstErr.Error()
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		rec.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return rec
}

// layerInputFor hands the set-up workload over to the traced run's
// timings from outside.
func layerInputFor(inst *instance, o runOpts) (layerInput, error) {
	in := layerInput{
		src: inst.src, dir: o.dir, db: inst.db, doc: inst.doc, timer: o.timer,
		fileBacked: inst.fileBacked, cachePages: inst.cachePages,
	}
	for _, c := range inst.classes {
		if c.expr != "" {
			in.exprs = append(in.exprs, c.expr)
		}
	}
	if inst.coldExpr != nil {
		k := 0
		in.fresh = func() string {
			k++
			c := k % len(inst.literals)
			return inst.coldExpr(c, k%len(inst.literals[c]))
		}
		for c := range inst.literals {
			in.exprs = append(in.exprs, inst.coldExpr(c, 0))
		}
	}
	var err error
	in.persons, err = keysOf(context.Background(), inst.db, inst.doc, "//person")
	return in, err
}

// counterMetrics turns the public counters' movement over the traced
// window into per-operation and per-transaction figures. A metric whose
// denominator is zero on this workload (no transactions, no plan-cache
// look-ups) stays 0.
func counterMetrics(win *window, v map[string]float64) {
	per := func(n uint64, d float64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d
	}
	ops := float64(win.samples) // the clients' correct operations
	s0, s1 := win.storage0, win.storage1
	hits := s1.Index.CacheHits - s0.Index.CacheHits
	misses := s1.Index.CacheMisses - s0.Index.CacheMisses
	v["pager.reads_per_op"] = per(s1.Pager.Reads-s0.Pager.Reads, ops)
	v["btree.node_loads_per_op"] = per(hits+misses, ops)
	v["btree.cache_hit_ratio"] = per(hits, float64(hits+misses))
	v["btree.evictions_per_op"] = per(s1.Index.CacheEvictions-s0.Index.CacheEvictions, ops)
	v["btree.seeks_per_op"] = per(s1.Index.Seeks-s0.Index.Seeks, ops)
	v["btree.counts_per_op"] = per(s1.Index.Counts-s0.Index.Counts, ops)
	v["mass.records_decoded_per_result"] = per(s1.RecordsDecoded-s0.RecordsDecoded, float64(win.results))
	v["mass.stat_probes_per_op"] = per(s1.StatProbes-s0.StatProbes, ops)

	c0, c1 := win.cache0, win.cache1
	planHits, planMisses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	v["core.plan_cache_hit_ratio"] = per(planHits, float64(planHits+planMisses))
	memoHits, memoMisses := c1.ProbeHits-c0.ProbeHits, c1.ProbeMisses-c0.ProbeMisses
	v["core.probe_memo_hit_ratio"] = per(memoHits, float64(memoHits+memoMisses))

	if u := win.update; u != nil {
		txns := float64(u.txns)
		writes := s1.Pager.Writes - s0.Pager.Writes
		v["pager.writes_per_txn"] = per(writes, txns)
		v["pager.write_bytes_per_txn"] = per(writes*8192, txns)
		v["pager.commits_per_txn"] = per(s1.Pager.Commits-s0.Pager.Commits, txns)
		v["pager.pages_stashed_per_txn"] = per(s1.Pager.PagesStashed-s0.Pager.PagesStashed, txns)
		v["btree.splits_per_txn"] = per(s1.Index.Splits-s0.Index.Splits, txns)
		v["vamana.update_p50_us"] = u.p50
		v["vamana.update_p99_us"] = u.p99
		v["bench.generator_lag_p99_us"] = u.lagP99
	}
}

func printHuman(w *os.File, rec *record) {
	mode := "tracing off"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n%s (%s, seed %d, %.3g s, commit %.12s)\n", rec.Workload, mode, rec.Stamp.Seed, rec.Stamp.Seconds, rec.Stamp.Commit)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "  %-36s %14.6f ratio (%d of %d)\n", "failed_share", rec.FailedShare, rec.Failed, rec.Attempted)
	if len(rec.Samples) > 0 {
		fmt.Fprintf(w, "  samples: %v\n", rec.Samples)
	}
	if len(rec.Classes) > 0 {
		fmt.Fprintf(w, "  per-class p50 (us): %v\n", rec.Classes)
	}
	if len(rec.Phases) > 0 {
		fmt.Fprintf(w, "  span shares of an operation: %v (%s)\n", rec.Phases, rec.TraceFile)
	}
	if rec.Error != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", rec.Error)
	}
}

// spec is BENCHMARK.json as far as the benchmark itself reads it.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles is Python's statistics.quantiles(v, n=4): the method the
// benchmark's acceptance is judged with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runAA runs sets complete sets the way the driver does, each run in a
// process of its own and each set on another seed, and prints, per
// workload and metric, the median, the quartiles, their distance as a
// share of the median, and the bound BENCHMARK.json fixes, flagging what
// falls outside.
func runAA(defs []workloadDef, o runOpts, sets int) bool {
	bounds := map[string]float64{}
	if sp, err := loadSpec("BENCHMARK.json"); err == nil {
		for _, m := range sp.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: no bounds: %v\n", err)
	}
	sets = max(sets, 2)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	values := map[string][]float64{} // workload/metric → one value per set
	ok := true
	for s := 0; s < sets; s++ {
		for _, def := range defs {
			cmd := exec.Command(self, "--workload", def.name, "--seed", strconv.FormatInt(o.seed+int64(s), 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0", "--out", o.dir)
			out, err := cmd.Output() // waits for the child to end
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "set %d %s FAILED: %v %v\n", s+1, def.name, err, jerr)
				ok = false
				continue
			}
			for _, d := range endToEnd {
				k := def.name + "/" + d.name
				values[k] = append(values[k], res.Metrics[d.name].Value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", s+1, sets, def.name)
		}
	}
	if !ok {
		return false
	}
	st := newStamp(o)
	fmt.Printf("A/A: %d sets, seeds %d.., %.3g s, commit %s, %s, GOMAXPROCS %d, nproc %d, %s\n",
		sets, st.Seed, st.Seconds, st.Commit, st.Go, st.GOMAXPROCS, st.NProc, st.Date)
	fmt.Printf("%-13s %-26s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "worst", "bound")
	for _, def := range defs {
		for _, d := range endToEnd {
			v := values[def.name+"/"+d.name]
			q1, q2, q3 := quartiles(v)
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			spread, worst := (q3-q1)/q2, (s[len(s)-1]-s[0])/q2
			flag := ""
			if b := bounds[d.name]; d.name != "setup_s" && spread > b {
				flag = "  SPREAD OUTSIDE BOUND"
			} else if worst > b {
				flag = "  a pair outside bound"
			}
			fmt.Printf("%-13s %-26s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %5.0f%%%s\n",
				def.name, d.name, q1, q2, q3, 100*spread, 100*worst, 100*bounds[d.name], flag)
		}
	}
	return true
}
