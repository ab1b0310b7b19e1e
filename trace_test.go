package vamana

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vamana/internal/plan"
)

// traceOne runs expr through the serving path on a flight-recorded DB
// and returns its newest trace.
func traceOne(t *testing.T, db *DB, doc *Document, expr string) *QueryTrace {
	t.Helper()
	drainCount(t, db, doc, expr)
	traces := db.RecentTraces()
	if len(traces) == 0 {
		t.Fatalf("no trace recorded for %s", expr)
	}
	tr := traces[0]
	if tr.Expr != expr {
		t.Fatalf("newest trace is %q, want %q", tr.Expr, expr)
	}
	return tr
}

// TestSpanTreeInvariants runs the paper's workload queries Q1-Q5 on a
// flight-recorded database and checks the structural invariants of each
// recorded span tree: children nest within their parents' intervals,
// rows-out of a context child equals rows-in of its parent step, the
// root's output equals the query's result count, and the per-operator
// estimates embedded in the spans match a fresh Estimate of the same
// expression.
func TestSpanTreeInvariants(t *testing.T) {
	db, err := Open(Options{FlightRecorderSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.01)

	for i, expr := range workloadExprs {
		tr := traceOne(t, db, doc, expr)
		if tr.Root == nil {
			t.Fatalf("Q%d: trace has no span tree", i+1)
		}
		if tr.Root.StartNS != 0 || tr.Root.EndNS <= 0 {
			t.Errorf("Q%d: root span [%d,%d] should cover the run from 0", i+1, tr.Root.StartNS, tr.Root.EndNS)
		}
		if tr.Root.Out != tr.Results {
			t.Errorf("Q%d: root span out=%d, trace results=%d", i+1, tr.Root.Out, tr.Results)
		}

		// Nesting: every child interval lies within its parent's.
		var checkNest func(s *Span)
		checkNest = func(s *Span) {
			if s.EndNS < s.StartNS {
				t.Errorf("Q%d: span %s ends before it starts [%d,%d]", i+1, s.Name, s.StartNS, s.EndNS)
			}
			for _, c := range s.Children {
				if c.StartNS < s.StartNS || c.EndNS > s.EndNS {
					t.Errorf("Q%d: span %s [%d,%d] escapes parent %s [%d,%d]",
						i+1, c.Name, c.StartNS, c.EndNS, s.Name, s.StartNS, s.EndNS)
				}
				checkNest(c)
			}
		}
		checkNest(tr.Root)

		// Context chain: each step consumes exactly what its context
		// child produced. The chain is the first-child path of axis
		// spans below the root (predicate subtrees are "pred" spans).
		cur := tr.Root
		for len(cur.Children) > 0 && cur.Children[0].Kind == "axis" {
			child := cur.Children[0]
			if cur.Kind == "axis" && cur.In != child.Out {
				t.Errorf("Q%d: step %s in=%d != context child %s out=%d",
					i+1, cur.Name, cur.In, child.Name, child.Out)
			}
			cur = child
		}

		// Estimates: the spans carry the executed (cached, optimized)
		// plan's cost annotations; a fresh Estimate of the same compiled
		// query against the same statistics must agree operator by
		// operator.
		q, err := db.Prepare(expr, WithDocument(doc), WithoutCache())
		if err != nil {
			t.Fatalf("Q%d compile: %v", i+1, err)
		}
		p, err := q.q.Estimate(nil, doc.id)
		if err != nil {
			t.Fatalf("Q%d estimate: %v", i+1, err)
		}
		var spans []*Span
		var flatten func(s *Span)
		flatten = func(s *Span) {
			spans = append(spans, s)
			for _, c := range s.Children {
				flatten(c)
			}
		}
		flatten(tr.Root)
		ops := p.Operators()
		if len(ops) != len(spans) {
			t.Fatalf("Q%d: %d spans for %d plan operators", i+1, len(spans), len(ops))
		}
		for j, op := range ops {
			sp := spans[j]
			if sp.Name != op.Label() {
				t.Errorf("Q%d op %d: span %q, plan operator %q", i+1, j, sp.Name, op.Label())
				continue
			}
			c := *plan.CostOf(op)
			if !sp.Estimated || sp.EstIn != c.In || sp.EstOut != c.Out {
				t.Errorf("Q%d %s: span est in=%d out=%d (estimated=%v), Estimate says in=%d out=%d",
					i+1, sp.Name, sp.EstIn, sp.EstOut, sp.Estimated, c.In, c.Out)
			}
		}
	}
}

// TestFlightRecorderConcurrent hammers the recorder from writer
// goroutines (queries) while readers snapshot and walk the traces —
// meaningful under -race.
func TestFlightRecorderConcurrent(t *testing.T) {
	db, err := Open(Options{FlightRecorderSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)
	drainCount(t, db, doc, "//person/address") // warm the plan cache

	const writers, readers, iters = 4, 2, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				expr := workloadExprs[(w+i)%len(workloadExprs)]
				res, err := db.Query(doc, expr)
				if err != nil {
					errs <- err
					return
				}
				for res.Next() {
				}
				if err := res.Err(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, tr := range db.RecentTraces() {
					var walk func(s *Span) int64
					walk = func(s *Span) int64 {
						d := s.EndNS - s.StartNS
						for _, c := range s.Children {
							d += walk(c)
						}
						return d
					}
					_ = walk(tr.Root)
					var buf bytes.Buffer
					_ = tr.WriteTree(&buf)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	traces := db.RecentTraces()
	if len(traces) != 8 {
		t.Fatalf("recorder holds %d traces, want 8 (full ring)", len(traces))
	}
	for _, tr := range traces {
		if tr.Root == nil || tr.Results == 0 {
			t.Errorf("incomplete recorded trace: %+v", tr)
		}
	}
}

// TestSlowQueryStorageDeltas drives the slow threshold to 1ns so every
// query lands in the ring, and checks that entries carry per-query
// storage consumption and that the log line includes it.
func TestSlowQueryStorageDeltas(t *testing.T) {
	var buf bytes.Buffer
	db, err := Open(Options{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &buf,
		FlightRecorderSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)

	for _, expr := range workloadExprs {
		drainCount(t, db, doc, expr)
	}
	// Q1-Q5 are answered from the indexes alone (name tests, a value-index
	// look-up); node() must read each candidate's record, so this entry is
	// the one whose decoded-records delta has to show.
	const recordsExpr = "//person/node()"
	drainCount(t, db, doc, recordsExpr)
	slow := db.SlowQueries()
	if len(slow) < len(workloadExprs)+1 {
		t.Fatalf("got %d slow entries, want >= %d", len(slow), len(workloadExprs)+1)
	}
	for _, sq := range slow[:len(workloadExprs)+1] {
		// Index traversal always touches B+-tree nodes; in-memory stores
		// read no pages, so cache hits are the reliable signal.
		if sq.NodeCacheHits == 0 {
			t.Errorf("slow entry %q has zero node-cache hits: %+v", sq.Expr, sq)
		}
		if sq.Root == nil {
			t.Errorf("slow entry %q carries no span tree (flight recorder is on)", sq.Expr)
		}
	}
	if sq := slow[0]; sq.Expr != recordsExpr || sq.RecordsDecoded == 0 {
		t.Errorf("newest slow entry = %q with %d decoded records, want %q with a non-zero count",
			sq.Expr, sq.RecordsDecoded, recordsExpr)
	}
	line := buf.String()
	for _, want := range []string{"pages=", "records=", "cachehits="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log line missing %q:\n%s", want, line)
		}
	}
}

// TestDebugEndpoints exercises every /debug/vamana endpoint over
// httptest and checks the JSON shapes.
func TestDebugEndpoints(t *testing.T) {
	db, err := Open(Options{
		SlowQueryThreshold: time.Nanosecond,
		FlightRecorderSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.003)
	drainCount(t, db, doc, "//person/address")
	drainCount(t, db, doc, "//person/address")

	h := db.DebugHandler("/debug/vamana")
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec
	}

	var metrics struct {
		Counters    map[string]uint64  `json:"counters"`
		RatesPerSec map[string]float64 `json:"rates_per_sec"`
	}
	if err := json.Unmarshal(get("/debug/vamana/metrics").Body.Bytes(), &metrics); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if metrics.Counters["vamana_exec_runs_total"] == 0 {
		t.Error("metrics counters missing vamana_exec_runs_total")
	}
	if _, ok := metrics.Counters["vamana_query_latency_ns_p99"]; !ok {
		t.Error("metrics counters missing histogram p99")
	}

	var slow []map[string]any
	if err := json.Unmarshal(get("/debug/vamana/slow").Body.Bytes(), &slow); err != nil {
		t.Fatalf("slow: %v", err)
	}
	if len(slow) == 0 {
		t.Error("slow endpoint returned no entries at a 1ns threshold")
	} else {
		for _, key := range []string{"expr", "total_ns", "results", "cache_hit", "pages_read", "records_decoded", "node_cache_hits"} {
			if _, ok := slow[0][key]; !ok {
				t.Errorf("slow entry missing JSON field %q: %v", key, slow[0])
			}
		}
	}

	var traces []*QueryTrace
	if err := json.Unmarshal(get("/debug/vamana/traces").Body.Bytes(), &traces); err != nil {
		t.Fatalf("traces: %v", err)
	}
	if len(traces) == 0 || traces[0].Root == nil {
		t.Fatalf("traces endpoint returned no span trees: %d entries", len(traces))
	}
	var one []*QueryTrace
	if err := json.Unmarshal(get("/debug/vamana/traces?n=1").Body.Bytes(), &one); err != nil {
		t.Fatalf("traces?n=1: %v", err)
	}
	if len(one) != 1 {
		t.Errorf("traces?n=1 returned %d entries", len(one))
	}
	if body := get("/debug/vamana/traces?format=text").Body.String(); !strings.Contains(body, "trace ") {
		t.Errorf("text traces missing header lines:\n%s", body)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/debug/vamana/traces?format=chrome").Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome traces: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("chrome traces contain no events")
	}

	var cache CacheStats
	if err := json.Unmarshal(get("/debug/vamana/plancache").Body.Bytes(), &cache); err != nil {
		t.Fatalf("plancache: %v", err)
	}
	if cache.Hits == 0 {
		t.Error("plancache endpoint shows no hits after a repeated query")
	}

	var docs []struct {
		Name  string `json:"name"`
		Nodes uint64 `json:"nodes"`
	}
	if err := json.Unmarshal(get("/debug/vamana/docs").Body.Bytes(), &docs); err != nil {
		t.Fatalf("docs: %v", err)
	}
	if len(docs) != 1 || docs[0].Name != "auction" || docs[0].Nodes == 0 {
		t.Errorf("docs endpoint: %+v", docs)
	}
}

// TestHistogramQuantileExposition checks that registered histograms emit
// p50/p95/p99 gauges in the text exposition and in Snapshot.
func TestHistogramQuantileExposition(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)
	drainCount(t, db, doc, "//person/address")

	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"vamana_query_latency_ns_p50",
		"vamana_query_latency_ns_p95",
		"vamana_query_latency_ns_p99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// parityGolden holds, for Q1-Q5 on the factor-0.01 auction document, what
// the commit before the positioned scanners (ce7bc69) printed: the full
// ExplainAnalyze text and the traced run's span tree with every
// operator's In/Scanned/Out. Tuple counts are properties of the plan, not
// of how a step reaches its index entries, so an executor change that
// only makes binds cheaper must reproduce both byte for byte; if a count
// moves, semantics moved.
var parityGolden = []struct{ expr, analyze, spans string }{
	{
		expr: `//person/address`,
		analyze: `query: //person/address
optimized: true
results: 136
R1                                            est IN=136 OUT=136  | act OUT=136
  φ2 descendant::address                      est IN=136 OUT=136  | act IN=136 scanned=136 OUT=136
    pred: ξ3                                  est IN=136 OUT=136
      φ4 parent::person                       est IN=136 OUT=136  | act IN=136 scanned=136 OUT=136
`,
		spans: `root R1 in=0 scanned=0 out=136
  axis φ2 descendant::address in=1 scanned=136 out=136
    pred ξ3 in=0 scanned=0 out=0
      axis φ4 parent::person in=136 scanned=136 out=136
`,
	},
	{
		expr: `//watches/watch/ancestor::person`,
		analyze: `query: //watches/watch/ancestor::person
optimized: true
results: 87
R1                                            est IN=87 OUT=87  | act OUT=87
  φ2 ancestor-or-self::person                 est IN=87 OUT=87  | act IN=87 scanned=87 OUT=87
    ctx: φ3 descendant::watches               est IN=87 OUT=87  | act IN=87 scanned=87 OUT=87
      pred: ξ4                                est IN=87 OUT=87
        φ5 child::watch                       est IN=87 OUT=185  | act IN=87 scanned=87 OUT=87
`,
		spans: `root R1 in=0 scanned=0 out=87
  axis φ2 ancestor-or-self::person in=87 scanned=87 out=87
    axis φ3 descendant::watches in=1 scanned=87 out=87
      pred ξ4 in=0 scanned=0 out=0
        axis φ5 child::watch in=87 scanned=87 out=87
`,
	},
	{
		expr: `/descendant::name/parent::*/self::person/address`,
		analyze: `query: /descendant::name/parent::*/self::person/address
optimized: true
results: 136
R1                                            est IN=136 OUT=136  | act OUT=136
  φ2 descendant::address                      est IN=136 OUT=136  | act IN=136 scanned=136 OUT=136
    pred: ξ3                                  est IN=136 OUT=136
      φ4 parent::person                       est IN=136 OUT=136  | act IN=136 scanned=136 OUT=136
        pred: ξ5                              est IN=136 OUT=136
          φ6 child::name                      est IN=136 OUT=482  | act IN=136 scanned=136 OUT=136
`,
		spans: `root R1 in=0 scanned=0 out=136
  axis φ2 descendant::address in=1 scanned=136 out=136
    pred ξ3 in=0 scanned=0 out=0
      axis φ4 parent::person in=136 scanned=136 out=136
        pred ξ5 in=0 scanned=0 out=0
          axis φ6 child::name in=136 scanned=136 out=136
`,
	},
	{
		expr: `//itemref/following-sibling::price/parent::*`,
		analyze: `query: //itemref/following-sibling::price/parent::*
optimized: true
results: 97
R1                                            est IN=217 OUT=217  | act OUT=97
  φ2 parent::*                                est IN=217 OUT=217  | act IN=97 scanned=97 OUT=97
    ctx: φ3 following-sibling::price          est IN=217 OUT=217  | act IN=217 scanned=97 OUT=97
      ctx: φ4 descendant::itemref             est IN=217 OUT=217  | act IN=217 scanned=217 OUT=217
`,
		spans: `root R1 in=0 scanned=0 out=97
  axis φ2 parent::* in=97 scanned=97 out=97
    axis φ3 following-sibling::price in=217 scanned=97 out=97
      axis φ4 descendant::itemref in=1 scanned=217 out=217
`,
	},
	{
		expr: `//province[text()='Vermont']/ancestor::person`,
		analyze: `query: //province[text()='Vermont']/ancestor::person
optimized: true
results: 2
R1                                            est IN=2 OUT=2  | act OUT=2
  φ2 ancestor::person                         est IN=2 OUT=2  | act IN=2 scanned=2 OUT=2
    ctx: φ3 parent::province                  est IN=2 OUT=2  | act IN=2 scanned=2 OUT=2
      ctx: φ4 value::"Vermont"                est IN=2 OUT=2  | act IN=2 scanned=2 OUT=2
`,
		spans: `root R1 in=0 scanned=0 out=2
  axis φ2 ancestor::person in=2 scanned=2 out=2
    axis φ3 parent::province in=2 scanned=2 out=2
      axis φ4 value::"Vermont" in=1 scanned=2 out=2
`,
	},
}

// TestStepCountsParity pins ExplainAnalyze and StepSpans tuple counts to
// parityGolden.
func TestStepCountsParity(t *testing.T) {
	db, err := Open(Options{FlightRecorderSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := loadAuction(t, db, 0.01)
	for _, g := range parityGolden {
		q, err := db.Prepare(g.expr, WithDocument(doc), WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.ExplainAnalyze(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got != g.analyze {
			t.Errorf("ExplainAnalyze(%s) moved:\n got:\n%s\nwant:\n%s", g.expr, got, g.analyze)
		}
		var sb strings.Builder
		var walk func(s *Span, depth int)
		walk = func(s *Span, depth int) {
			fmt.Fprintf(&sb, "%*s%s %s in=%d scanned=%d out=%d\n", depth*2, "", s.Kind, s.Name, s.In, s.Scanned, s.Out)
			for _, c := range s.Children {
				walk(c, depth+1)
			}
		}
		walk(traceOne(t, db, doc, g.expr).Root, 0)
		if sb.String() != g.spans {
			t.Errorf("span tree of %s moved:\n got:\n%s\nwant:\n%s", g.expr, sb.String(), g.spans)
		}
	}
}
