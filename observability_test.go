package vamana

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vamana/internal/obs"
)

// drainCount runs expr through the serving path and returns its result
// cardinality.
func drainCount(t *testing.T, db *DB, doc *Document, expr string) int {
	t.Helper()
	res, err := db.Query(doc, expr)
	if err != nil {
		t.Fatalf("Query(%s): %v", expr, err)
	}
	n := 0
	for res.Next() {
		n++
	}
	if err := res.Err(); err != nil {
		t.Fatalf("Query(%s) drain: %v", expr, err)
	}
	return n
}

// TestMetricCounterMonotonicity runs queries and asserts that no global
// counter ever decreases, and that the counters a query run must touch
// strictly increase.
func TestMetricCounterMonotonicity(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)

	before := obs.Snapshot()
	if drainCount(t, db, doc, "//person/address") == 0 {
		t.Fatal("no results")
	}
	// Second run of the same expression exercises the cache-hit path.
	drainCount(t, db, doc, "//person/address")
	after := obs.Snapshot()

	for name, v := range before {
		// Quantile series are gauges — they move both ways as the
		// latency distribution shifts.
		if strings.HasSuffix(name, "_p50") || strings.HasSuffix(name, "_p95") || strings.HasSuffix(name, "_p99") {
			continue
		}
		if after[name] < v {
			t.Errorf("counter %s decreased: %d -> %d", name, v, after[name])
		}
	}
	mustGrow := []string{
		"vamana_exec_runs_total",
		"vamana_exec_results_total",
		"vamana_exec_axis_scans_total",
		"vamana_queries_compiled_total",
		"vamana_queries_served_cached_total",
		"vamana_query_latency_ns_count",
	}
	for _, name := range mustGrow {
		if after[name] <= before[name] {
			t.Errorf("counter %s did not increase: %d -> %d", name, before[name], after[name])
		}
	}
}

// workloadExprs are the paper's five workload queries Q1-Q5.
var workloadExprs = []string{
	"//person/address",
	"//watches/watch/ancestor::person",
	"/descendant::name/parent::*/self::person/address",
	"//itemref/following-sibling::price/parent::*",
	"//province[text()='Vermont']/ancestor::person",
}

// TestExplainAnalyzeActualsMatchQuery asserts that the actual
// cardinalities ExplainAnalyze reports agree with the result counts the
// serving path returns for the paper's workload queries Q1-Q5.
func TestExplainAnalyzeActualsMatchQuery(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)

	exprs := workloadExprs
	resultsRe := regexp.MustCompile(`(?m)^results: (\d+)$`)
	for i, expr := range exprs {
		want := drainCount(t, db, doc, expr)
		q, err := db.Prepare(expr, WithDocument(doc), WithoutCache())
		if err != nil {
			t.Fatalf("Q%d compile: %v", i+1, err)
		}
		out, err := q.ExplainAnalyze(doc)
		if err != nil {
			t.Fatalf("Q%d ExplainAnalyze: %v", i+1, err)
		}
		m := resultsRe.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("Q%d: no results line in:\n%s", i+1, out)
		}
		got, _ := strconv.Atoi(m[1])
		if got != want {
			t.Errorf("Q%d: ExplainAnalyze results %d, Query returned %d\n%s", i+1, got, want, out)
		}
		if !strings.Contains(out, "est IN=") || !strings.Contains(out, "| act ") {
			t.Errorf("Q%d: missing est/act columns:\n%s", i+1, out)
		}
		if !strings.Contains(out, fmt.Sprintf("| act OUT=%d", want)) {
			t.Errorf("Q%d: root actual OUT=%d not reported:\n%s", i+1, want, out)
		}
	}
}

// TestPlanCacheEvictionConcurrent mixes compile and serve traffic over
// far more distinct expressions than the 256-plan cache can hold,
// concurrently, and checks that eviction counters move and results stay
// correct.
func TestPlanCacheEvictionConcurrent(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)

	const canonical = "//person/address"
	want := drainCount(t, db, doc, canonical)
	if want == 0 {
		t.Fatal("no results for canonical expression")
	}

	// Each expression caches an optimized and an unoptimized plan: 400
	// expressions are three times the cache's capacity.
	exprs := make([]string, 0, 400)
	for i := 0; i < 399; i++ {
		exprs = append(exprs, fmt.Sprintf("//person/x%d", i))
	}
	exprs = append(exprs, canonical)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(exprs); i++ {
				expr := exprs[(g*7+i)%len(exprs)]
				if i%2 == 0 {
					res, err := db.Query(doc, expr)
					if err != nil {
						errs <- err
						return
					}
					n := 0
					for res.Next() {
						n++
					}
					if err := res.Err(); err != nil {
						errs <- err
						return
					}
					if expr == canonical && n != want {
						errs <- fmt.Errorf("%s under load: got %d results, want %d", expr, n, want)
						return
					}
					continue
				}
				opts := []CompileOption{WithDocument(doc)}
				if g%2 != 0 {
					opts = append(opts, WithoutOptimization())
				}
				if _, err := db.Prepare(expr, opts...); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The storm thrashed the cache; back-to-back repeats of one
	// expression must now hit.
	drainCount(t, db, doc, canonical)
	if got := drainCount(t, db, doc, canonical); got != want {
		t.Errorf("%s after load: got %d results, want %d", canonical, got, want)
	}

	cs := db.CacheStats()
	if cs.Evictions == 0 {
		t.Errorf("no evictions recorded under overload: %+v", cs)
	}
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Errorf("expected both hits and misses: %+v", cs)
	}
}

// TestSlowQueryLog drives the threshold to 1ns so every query is slow,
// then checks both the in-memory ring and the configured writer.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	db, err := Open(Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)

	const expr = "//person/address"
	drainCount(t, db, doc, expr)
	drainCount(t, db, doc, expr)

	slow := db.SlowQueries()
	if len(slow) < 2 {
		t.Fatalf("SlowQueries returned %d entries, want >= 2", len(slow))
	}
	if slow[0].Expr != expr {
		t.Errorf("newest slow query is %q, want %q", slow[0].Expr, expr)
	}
	if slow[0].Total <= 0 {
		t.Errorf("slow query has non-positive duration: %+v", slow[0])
	}
	// The second run was served from the plan cache.
	if !slow[0].CacheHit {
		t.Errorf("newest slow entry should be a cache hit: %+v", slow[0])
	}
	if got := strings.Count(buf.String(), "slow query:"); got < 2 {
		t.Errorf("writer got %d slow-query lines, want >= 2:\n%s", got, buf.String())
	}
}

// TestSlowQueryLogConcurrent: concurrent slow queries share one plain
// bytes.Buffer as SlowQueryLog, which has no locking of its own. Every
// line must arrive whole — one Write per line, made under the log's
// lock — and the run must be race-free under -race.
func TestSlowQueryLogConcurrent(t *testing.T) {
	var buf bytes.Buffer
	db, err := Open(Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("lib", "<lib><a><b/></a><a><b/></a></lib>")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, queries = 4, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				res, err := db.Query(doc, "//b")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := res.Keys(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	line := regexp.MustCompile(`^slow query: //b doc=lib total=\S+ results=2 cached=(true|false) pages=\d+ records=\d+ cachehits=\d+$`)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != goroutines*queries {
		t.Fatalf("slow log has %d lines, want %d:\n%s", len(lines), goroutines*queries, buf.String())
	}
	for _, l := range lines {
		if !line.MatchString(l) {
			t.Fatalf("malformed slow log line %q", l)
		}
	}
}

// TestTraceSampling samples 1 in 2 queries and expects exactly half of
// the runs to reach the sink.
func TestTraceSampling(t *testing.T) {
	var mu sync.Mutex
	var traces []*QueryTrace
	db, err := Open(Options{
		TraceEvery: 2,
		TraceSink: func(tc *QueryTrace) {
			mu.Lock()
			traces = append(traces, tc)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)

	const runs = 10
	for i := 0; i < runs; i++ {
		drainCount(t, db, doc, "//person/address")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(traces) != runs/2 {
		t.Fatalf("sampled %d traces out of %d runs, want %d", len(traces), runs, runs/2)
	}
	for _, tc := range traces {
		if tc.Expr != "//person/address" || tc.Total <= 0 || tc.Results == 0 {
			t.Errorf("bad trace: %+v", tc)
		}
	}
}

// TestMetricsExposition checks the Prometheus-text endpoint and the
// per-store counters behind it.
func TestMetricsExposition(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)
	// node() reads the record of every candidate; a name-tested path
	// would be answered from the indexes and decode nothing.
	drainCount(t, db, doc, "//person/node()")

	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE vamana_exec_runs_total counter",
		"vamana_query_latency_ns_bucket",
		"vamana_pager_page_reads_total",
		"vamana_btree_cache_hits_total",
		"vamana_mass_records_decoded_total",
		"vamana_plan_cache_misses_total",
		"vamana_stats_memo_hits_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteMetrics output missing %q", want)
		}
	}

	sm := db.StorageMetrics()
	if sm.RecordsDecoded == 0 {
		t.Error("StorageMetrics.RecordsDecoded is zero after a query")
	}
	if sm.Index.Seeks == 0 {
		t.Error("StorageMetrics.Index.Seeks is zero after a query")
	}

	rec := httptest.NewRecorder()
	db.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics handler status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "vamana_exec_runs_total") {
		t.Error("metrics handler body missing global counters")
	}
}

// TestObservabilityAfterUpdate: once DB.Update has run, DB.Query serves
// from the shared auto-snapshot — through the same query path as before
// it, so the slow-query log, trace sampling, the flight recorder and the
// cost observatory keep receiving every query.
func TestObservabilityAfterUpdate(t *testing.T) {
	var sunk atomic.Int64
	db, err := Open(Options{
		SlowQueryThreshold: 1,
		TraceEvery:         1,
		TraceSink:          func(*QueryTrace) { sunk.Add(1) },
		FlightRecorderSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("d", "<r><x/><x/></r>")
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		t.Helper()
		res, err := db.Query(doc, "//x")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Keys(); err != nil {
			t.Fatal(err)
		}
	}
	observed := func() (slow, sink, traces int, costObs uint64) {
		return len(db.SlowQueries()), int(sunk.Load()), len(db.RecentTraces()), db.CostProfile().Observations
	}

	query()
	slow0, sink0, traces0, cost0 := observed()
	if slow0 != 1 || sink0 != 1 || traces0 != 1 || cost0 == 0 {
		t.Fatalf("before update: slow=%d sink=%d traces=%d cost=%d, want 1/1/1/>0", slow0, sink0, traces0, cost0)
	}
	mustUpdate(t, db, func(tx *Txn) error {
		_, err := tx.InsertElement(doc, "a.b", -1, "x") // a.b is <r>
		return err
	})
	slow0, sink0, traces0, cost0 = observed()
	query()
	query()
	slow1, sink1, traces1, cost1 := observed()
	if slow1-slow0 != 2 || sink1-sink0 != 2 || traces1-traces0 != 2 {
		t.Fatalf("after update: slow +%d, sink +%d, traces +%d; want +2 each", slow1-slow0, sink1-sink0, traces1-traces0)
	}
	if cost1-cost0 != 2*(cost0/uint64(slow0)) {
		t.Fatalf("after update: cost observations +%d, want +%d", cost1-cost0, 2*(cost0/uint64(slow0)))
	}
	// The ring's two newest traces are the post-update queries, and they
	// saw the committed insert.
	for i, tr := range db.RecentTraces()[:2] {
		if tr.Expr != "//x" || tr.Results != 3 {
			t.Fatalf("trace %d: expr %q results %d, want //x with 3", i, tr.Expr, tr.Results)
		}
	}
}
