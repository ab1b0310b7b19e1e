// Package core assembles VAMANA's components — the MASS store, the XPath
// compiler, the cost estimator, the optimizer and the execution engine —
// into the query engine of the paper's Fig. 2. The public API in the
// repository root package wraps this engine.
package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"vamana/internal/cost"
	"vamana/internal/exec"
	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/mass"
	"vamana/internal/obs"
	"vamana/internal/opt"
	"vamana/internal/pager"
	"vamana/internal/plan"
	"vamana/internal/xpath"
)

// Options configures an Engine.
type Options struct {
	// Path is the page file backing the MASS store; empty runs fully in
	// memory.
	Path string
	// CachePages bounds the clean page cache of a file-backed store's
	// pager (see mass.Options.CachePages). 0 selects the default.
	CachePages int
	// Backend, when non-nil, overrides Path as the pager's storage (see
	// mass.Options.Backend). Used by crash-safety tests to inject faults.
	Backend pager.Backend
	// SlowQueryThreshold records runs, prepared or not, whose end-to-end
	// latency meets or exceeds it into the ring (Engine.SlowQueries is
	// the view of them) and SlowQueryLog, when set. 0 disables slow-query
	// tracking.
	SlowQueryThreshold time.Duration
	// SlowQueryLog, when non-nil, receives one line per slow query.
	SlowQueryLog io.Writer
	// TraceEvery records spans for 1-in-N runs (1 traces every query)
	// and writes their records into the ring. 0 disables
	// sampling; the unsampled cache-hit path then allocates no per-query
	// trace state at all.
	TraceEvery int
	// TraceSink receives each sampled record after its query finishes.
	// Called from the goroutine that drained the iterator;
	// implementations should be fast or hand off.
	TraceSink func(*obs.QueryTrace)
	// FlightRecorderSize sizes the ring of recent records (default 256)
	// and, when N>0, records spans for every query (independent of
	// TraceEvery sampling), so a query that turns out slow or
	// budget-tripped already has its span tree in the ring.
	FlightRecorderSize int
	// ExecBatch sets the executor's pull-batch size for every query this
	// engine runs (see exec.Context.Batch). 0 selects exec.DefaultBatch;
	// 1 degenerates to tuple-at-a-time execution. Exposed mainly for the
	// vbench batch sweep and the differential harness.
	ExecBatch int
}

// Engine is a VAMANA instance: one MASS store plus the query pipeline.
type Engine struct {
	store *mass.Store
	// live is the engine's own read view: the store's current view with
	// the shared, epoch-validated plan cache and statistics memo.
	live view

	// ring holds the engine's records: slow, traced, and the serving
	// layer's per-request ones.
	ring *traceRing
	// slowAt is Options.SlowQueryThreshold (0: off); slowLog writes its
	// line per slow query, nil without Options.SlowQueryLog.
	slowAt     time.Duration
	slowLog    *obs.LineLog
	traceEvery uint64
	traceSink  func(*obs.QueryTrace)
	traceN     atomic.Uint64
	// traceAll records spans for every query (Options.FlightRecorderSize
	// > 0).
	traceAll bool
	// traceSeq mints record IDs.
	traceSeq atomic.Uint64
	// execBatch is Options.ExecBatch, stamped on every run's exec.Context.
	execBatch int
	// cost is the est-vs-act accuracy observatory every query folds into.
	cost *CostObservatory
}

// view is one read view the query path runs over: where each query pins
// the mass.View it reads (the store's current one, or a snapshot's), the
// plan cache and statistics memo its compiles go through, and — for
// Engine.Snapshot handles only — usage counters. The engine owns its
// live view; every Snapshot carries its own.
type view struct {
	src    mass.Source
	plans  *planCache
	probes *cost.MemoProbes
	usage  *usageCounters
	// finishFn is the iterator finish hook bound to this view once, so
	// the per-query path never allocates a closure.
	finishFn func(*exec.Iterator)
}

// bindView completes v with its finish hook.
func (e *Engine) bindView(v *view) {
	v.finishFn = func(it *exec.Iterator) { e.queryFinished(v, it) }
}

// Open creates or reopens an engine.
func Open(opts Options) (*Engine, error) {
	s, err := mass.Open(mass.Options{
		Path:       opts.Path,
		CachePages: opts.CachePages,
		Backend:    opts.Backend,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		store:     s,
		live:      view{src: s, plans: newPlanCache(planCapacity), probes: cost.NewMemoProbes(s)},
		execBatch: opts.ExecBatch,
		cost:      newCostObservatory(),
	}
	e.bindView(&e.live)
	if opts.SlowQueryThreshold > 0 {
		e.slowAt = opts.SlowQueryThreshold
		e.slowLog = obs.NewLineLog(opts.SlowQueryLog, appendSlowLine)
	}
	if opts.TraceEvery > 0 {
		e.traceEvery = uint64(opts.TraceEvery)
		e.traceSink = opts.TraceSink
	}
	size := defaultRingSize
	if opts.FlightRecorderSize > 0 {
		e.traceAll, size = true, opts.FlightRecorderSize
	}
	e.ring = newTraceRing(size)
	return e, nil
}

// Store exposes the underlying MASS store (used by the benchmark harness
// and the CLI for statistics).
func (e *Engine) Store() *mass.Store { return e.store }

// Close flushes and releases the engine.
func (e *Engine) Close() error { return e.store.Close() }

// VerifyPages checksums every durable page of the backing store. See
// mass.Store.VerifyPages.
func (e *Engine) VerifyPages() (checked int, corrupt []pager.PageID, err error) {
	return e.store.VerifyPages()
}

// Load shreds and indexes an XML document under a unique name.
func (e *Engine) Load(name string, r io.Reader) (mass.DocID, error) {
	return e.store.LoadDocument(name, r)
}

// LoadString is Load from a string.
func (e *Engine) LoadString(name, src string) (mass.DocID, error) {
	return e.Load(name, strings.NewReader(src))
}

// Query is a compiled (and possibly optimized) XPath expression.
type Query struct {
	engine    *Engine
	expr      string
	plan      *plan.Plan
	optimized bool
	trace     []string
}

// Compile parses expr and builds the default (unoptimized) query plan —
// "VQP" in the paper's experiments. Parse failures wrap the underlying
// *xpath.SyntaxError, so callers can recover the offending position with
// errors.As.
func (e *Engine) Compile(expr string) (*Query, error) {
	ast, err := xpath.Parse(expr)
	if err != nil {
		return nil, fmt.Errorf("vamana: compile: %w", err)
	}
	p, err := plan.Build(ast)
	if err != nil {
		return nil, fmt.Errorf("vamana: compile: %w", err)
	}
	return &Query{engine: e, expr: expr, plan: p}, nil
}

// CompileOptimized parses expr and runs the cost-driven optimizer against
// doc's live statistics — "VQP-OPT".
func (e *Engine) CompileOptimized(doc mass.DocID, expr string) (*Query, error) {
	return e.compileOptimizedOn(&e.live, doc, expr)
}

// compileOptimizedOn is CompileOptimized against the statistics memo of
// v — the engine's live view or a snapshot's.
func (e *Engine) compileOptimizedOn(v *view, doc mass.DocID, expr string) (*Query, error) {
	q, err := e.Compile(expr)
	if err != nil {
		return nil, err
	}
	o := &opt.Optimizer{
		Store:  v.src,
		Doc:    doc,
		Probes: v.probes,
		Trace: func(format string, args ...any) {
			q.trace = append(q.trace, fmt.Sprintf(format, args...))
		},
	}
	optPlan, err := o.Optimize(q.plan)
	if err != nil {
		return nil, err
	}
	q.plan = optPlan
	q.optimized = true
	return q, nil
}

// CompileCached returns a compiled query for expr, consulting the plan
// cache first. Unoptimized plans depend only on the expression and are
// shared across documents; optimized plans are keyed by document and
// validated against the document's statistics epoch, so any update to the
// document transparently forces a recompile against fresh statistics.
func (e *Engine) CompileCached(doc mass.DocID, expr string, optimized bool) (*Query, error) {
	q, _, err := e.compileCachedOn(&e.live, doc, expr, optimized)
	return q, err
}

// compileCachedOn is CompileCached through v's plan cache, plus a report
// of whether the plan came from the cache — the compile-vs-serve split
// the serving metrics track. A snapshot's epochs never move, so entries
// in its private cache stay valid for the snapshot's whole life.
func (e *Engine) compileCachedOn(v *view, doc mass.DocID, expr string, optimized bool) (*Query, bool, error) {
	compile := func() (*Query, error) {
		if optimized {
			return e.compileOptimizedOn(v, doc, expr)
		}
		return e.Compile(expr)
	}
	k := planKey{expr: expr, optimized: optimized}
	var epoch uint64
	if optimized {
		k.doc = doc
		// Capture the epoch before compiling: if an update lands while the
		// optimizer is probing, the entry records the pre-update epoch and
		// the next lookup recompiles — conservative but always correct.
		epoch = v.src.Epoch(doc)
	}
	if q, ok := v.plans.get(k, epoch); ok {
		return q, true, nil
	}
	q, err := compile()
	if err != nil {
		return nil, false, err
	}
	v.plans.put(k, q, epoch)
	return q, false, nil
}

// QueryContext is the one-shot serving fast path over the live store:
// compile expr with the cost-driven optimizer (through the plan cache)
// and execute it against doc under governance — ctx's cancellation and
// deadline, and limits' resource budgets (zero limits = unlimited).
// Steady-state serving of a repeated query costs one cache lookup plus
// execution — no parsing, no optimization, no statistics probes.
func (e *Engine) QueryContext(cctx context.Context, doc mass.DocID, expr string, limits govern.Limits) (*exec.Iterator, error) {
	return e.query(cctx, &e.live, doc, expr, RunArgs{Limits: limits})
}

// RunArgs are one run's parameters: the initial context node ("" selects
// the document root), variable bindings, document-order delivery, and
// resource budgets (zero limits = unlimited).
type RunArgs struct {
	Start   flex.Key
	Vars    map[string][]flex.Key
	Ordered bool
	Limits  govern.Limits
}

// Query is QueryContext with every run parameter explicit, over sn's
// frozen state (nil: the live store).
func (e *Engine) Query(cctx context.Context, sn *Snapshot, doc mass.DocID, expr string, a RunArgs) (*exec.Iterator, error) {
	return e.query(cctx, e.viewOf(sn), doc, expr, a)
}

// Run executes the prepared query against doc over sn's frozen state
// (nil: the live store). It enters the one query path at its run half,
// so a prepared run is observed like any other query.
func (q *Query) Run(cctx context.Context, sn *Snapshot, doc mass.DocID, a RunArgs) (*exec.Iterator, error) {
	start := time.Now()
	if err := govern.CheckContext(cctx); err != nil {
		return nil, err
	}
	// A prepared run counts as a cache hit: it compiled at Prepare.
	return q.engine.run(cctx, q.engine.viewOf(sn), q, doc, a, start, true)
}

// viewOf returns sn's read view, or the live one for nil.
func (e *Engine) viewOf(sn *Snapshot) *view {
	if sn == nil {
		return &e.live
	}
	return &sn.view
}

// query is the one query path's compile half, run over view v (the live
// view or a snapshot's): compile expr through v's plan cache, then hand
// off to the run half.
func (e *Engine) query(cctx context.Context, v *view, doc mass.DocID, expr string, a RunArgs) (*exec.Iterator, error) {
	start := time.Now()
	// Pre-flight: a pre-canceled or pre-expired ctx fails here, before
	// the plan cache, the optimizer's statistics probes, or storage is
	// touched. This is the query's single immediate poll; from here on
	// cancellation rides the limiter's amortized ticks.
	if err := govern.CheckContext(cctx); err != nil {
		return nil, err
	}
	q, hit, err := e.compileCachedOn(v, doc, expr, true)
	if err != nil {
		return nil, err
	}
	return e.run(cctx, v, q, doc, a, start, hit)
}

// run is the one query path's run half: every query execution but
// Analyze's goes through it. Every run is instrumented: the
// compile-vs-serve split and an end-to-end latency histogram feed the
// global metrics, runs over Options.SlowQueryThreshold land in the ring
// and the slow-query log, and traced runs record spans. On the common
// path (cache hit, unsampled) the instrumentation adds two time.Now
// calls and a handful of counter updates — no allocations. The run pins
// the view it reads, from v's source, when it starts.
func (e *Engine) run(cctx context.Context, v *view, q *Query, doc mass.DocID, a RunArgs, start time.Time, hit bool) (*exec.Iterator, error) {
	if hit {
		obs.QueriesServedCached.Inc()
	} else {
		obs.QueriesCompiled.Inc()
	}
	ctx := exec.Context{
		Store:       v.src,
		Doc:         doc,
		Start:       a.Start,
		Vars:        a.Vars,
		Ordered:     a.Ordered,
		Ctx:         cctx,
		Limits:      a.Limits,
		OnFinish:    v.finishFn,
		FinishStart: start,
		FinishObj:   q,
		Batch:       e.execBatch,
	}
	// A traced query records per-operator spans: 1-in-TraceEvery samples,
	// or every query when the flight recorder is on (so slow/budget-
	// tripped queries are captured retroactively). Slow-query tracking
	// and snapshot usage accounting arm the accounting limiter without
	// spans, so every slow entry carries its storage deltas.
	sampled := e.traceEvery > 0 && e.traceN.Add(1)%e.traceEvery == 0
	traced := sampled || e.traceAll
	ctx.Trace = traced
	ctx.Account = e.slowAt > 0 || v.usage != nil
	// A run that may write a record under a serving request joins the
	// wire identity; the finish hook then hands the record to the request
	// instead of the ring (the serving layer records the combined one).
	var rt *RequestTrace
	if traced || e.slowAt > 0 {
		rt = requestTraceFrom(cctx)
	}
	// Such a run (and the rare compile miss, whose cost dwarfs one
	// allocation) carries a traceContext instead of the bare Query, so
	// the finish hook can report compile time and cache-hit status.
	if traced || !hit || rt != nil {
		tc := &traceContext{
			QueryTrace: obs.QueryTrace{
				ID:       e.traceSeq.Add(1),
				Expr:     q.expr,
				Start:    start,
				CacheHit: hit,
				Compile:  time.Since(start),
			},
			sampled: sampled,
			traced:  traced,
			q:       q,
			req:     rt,
		}
		if sampled {
			obs.TracesSampled.Inc()
		}
		if rt != nil {
			tc.Request, tc.Tenant = rt.ID, rt.Tenant
		}
		ctx.FinishObj = tc
	}
	return exec.Run(q.plan, ctx)
}

// queryFinished is the query path's iterator finish hook for view v: it
// closes out the query's latency observation, cost fold and — on
// snapshot handles — usage accounting, and completes the record of a
// slow or traced run: into the ring, or to the serving request it ran
// under, plus the slow-query log line and the sampled-trace sink.
func (e *Engine) queryFinished(v *view, it *exec.Iterator) {
	total := time.Since(it.StartTime())
	obs.QueryLatency.Observe(total)
	if u := v.usage; u != nil {
		u.queries.Add(1)
		u.results.Add(it.Results())
		if lim := it.Limiter(); lim != nil {
			u.pages.Add(lim.PagesRead())
			u.records.Add(lim.DecodedRecords())
		}
	}
	var (
		expr string
		hit  bool
		tc   *traceContext
	)
	switch o := it.FinishObj().(type) {
	case *traceContext:
		tc = o
		expr, hit = o.Expr, o.CacheHit
	case *Query:
		// The unsampled cache-hit fast path carries the shared Query.
		expr, hit = o.expr, true
	}
	// Fold the run's actual per-step cardinalities against the plan's
	// estimates — every query feeds the cost observatory, not only the
	// sampled ones. Allocation-free on the steady path. A run started
	// From a node other than the root is skipped: the plan's estimates
	// describe the run from the document root, so its actuals would read
	// as misestimates.
	var worstOp *plan.Step
	var worstQ float64
	if it.Start() == flex.Root {
		worstOp, worstQ = e.cost.fold(it, expr)
	}
	slow := e.slowAt > 0 && total >= e.slowAt
	traced := tc != nil && tc.traced
	if !slow && !traced {
		return
	}
	if tc == nil {
		tc = &traceContext{QueryTrace: obs.QueryTrace{ID: e.traceSeq.Add(1), Expr: expr, Start: it.StartTime(), CacheHit: hit}}
	}
	t := &tc.QueryTrace
	t.Doc = it.View().DocName(it.Doc())
	t.Total = total
	t.Results = it.Results()
	if err := it.Err(); err != nil {
		t.Err = err.Error()
	}
	if lim := it.Limiter(); lim != nil {
		t.PagesRead = lim.PagesRead()
		t.RecordsDecoded = lim.DecodedRecords()
		t.NodeCacheHits = lim.NodeCacheHits()
	}
	if traced {
		t.Root = buildSpanTree(tc.q.plan, it.StepSpans(), it.Results(), int64(total))
	}
	if slow {
		obs.SlowQueries.Inc()
		// Name the worst-misestimated operator so a slow query points
		// straight at the cost-model miss that may have caused it.
		if worstOp != nil && worstQ >= 2 {
			t.WorstOp = worstOp.Label()
			t.WorstQErr = worstQ
		}
		e.slowLog.Write(t)
	}
	if tc.req != nil {
		tc.req.Captured = t
	} else {
		e.ring.add(t)
	}
	if tc.sampled && e.traceSink != nil {
		e.traceSink(t)
	}
}

// CostProfile snapshots the cost-model observatory: per-operator-class
// q-error profiles and worst offenders.
func (e *Engine) CostProfile() CostProfile { return e.cost.Profile() }

// CacheStats reports plan-cache and statistics-memo counters.
func (e *Engine) CacheStats() CacheStats {
	var st CacheStats
	p := e.live.plans
	st.Hits = p.hits.Load()
	st.Misses = p.misses.Load()
	st.Evictions = p.evictions.Load()
	st.Invalidations = p.invalidations.Load()
	st.ProbeHits, st.ProbeMisses, st.ProbeResets = e.live.probes.Counters()
	return st
}

// WriteMetrics writes the full metric exposition for this engine in
// Prometheus text format: the process-global counters and histograms,
// followed by this engine's storage counters (pager I/O, index node
// cache, records decoded, statistics probes) and cache statistics.
func (e *Engine) WriteMetrics(w io.Writer) error {
	if err := obs.WriteText(w); err != nil {
		return err
	}
	m := e.store.Metrics()
	st := e.CacheStats()
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"vamana_pager_page_reads_total", "Pages read from the pager.", m.Pager.Reads},
		{"vamana_pager_page_writes_total", "Pages written to the pager.", m.Pager.Writes},
		{"vamana_pager_page_allocs_total", "Pages allocated (fresh or recycled).", m.Pager.Allocs},
		{"vamana_pager_page_frees_total", "Pages returned to the free list.", m.Pager.Frees},
		{"vamana_pager_pages", "Current page count including the meta pages.", m.Pager.Pages},
		{"vamana_pager_commits_total", "Atomic Flush commits that reached the backing file.", m.Pager.Commits},
		{"vamana_pager_checksum_failures_total", "Page reads that failed CRC32C verification.", m.Pager.ChecksumFails},
		{"vamana_pager_meta_fallbacks_total", "Opens that lost one metadata copy and recovered from the other.", m.Pager.MetaFallbacks},
		{"vamana_pager_journal_replays_total", "Opens that completed an interrupted commit from its journal.", m.Pager.JournalReplays},
		{"vamana_btree_cache_hits_total", "Index node loads served by an already-decoded page frame.", m.Index.CacheHits},
		{"vamana_btree_cache_misses_total", "Index node loads that read and decoded a page.", m.Index.CacheMisses},
		{"vamana_btree_cache_evictions_total", "Clean page frames the pager evicted to stay within CachePages.", m.Index.CacheEvictions},
		{"vamana_btree_node_splits_total", "Leaf and branch node splits.", m.Index.Splits},
		{"vamana_btree_cursor_seeks_total", "Cursor seeks across all index trees.", m.Index.Seeks},
		{"vamana_btree_count_probes_total", "Counted-range probes (Count/Rank).", m.Index.Counts},
		{"vamana_mass_records_decoded_total", "Clustered-index records decoded.", m.RecordsDecoded},
		{"vamana_mass_stat_probes_total", "Statistics probes that reached storage (memo misses).", m.StatProbes},
		{"vamana_plan_cache_hits_total", "Plan-cache lookups served from cache.", st.Hits},
		{"vamana_plan_cache_misses_total", "Plan-cache lookups that compiled.", st.Misses},
		{"vamana_plan_cache_evictions_total", "Plan-cache entries dropped by LRU capacity.", st.Evictions},
		{"vamana_plan_cache_invalidations_total", "Plan-cache entries dropped by epoch change.", st.Invalidations},
		{"vamana_stats_memo_hits_total", "Statistics-memo probe hits.", st.ProbeHits},
		{"vamana_stats_memo_misses_total", "Statistics-memo probe misses.", st.ProbeMisses},
		{"vamana_stats_memo_resets_total", "Statistics-memo generations discarded.", st.ProbeResets},
	} {
		if err := obs.WriteCounterText(w, c.name, c.help, c.v); err != nil {
			return err
		}
	}
	e.cost.Profile().writeProm(w)
	return nil
}

// Expr returns the source expression.
func (q *Query) Expr() string { return q.expr }

// Optimized reports whether the cost-driven optimizer ran.
func (q *Query) Optimized() bool { return q.optimized }

// Plan exposes the physical plan (cost-annotated after optimization or
// Estimate).
func (q *Query) Plan() *plan.Plan { return q.plan }

// Trace returns the optimizer's decision log.
func (q *Query) Trace() []string { return q.trace }

// Estimate annotates a copy of the plan with cost information for doc
// over sn's pinned version (nil: the live store), through that view's
// statistics memo, without executing it, and returns the annotated copy.
// The query's own plan is never written after compilation — a Query is
// immutable and safe for concurrent use by any number of goroutines
// (which is what lets the engine's plan cache share one Query across a
// serving fleet).
func (q *Query) Estimate(sn *Snapshot, doc mass.DocID) (*plan.Plan, error) {
	p := q.plan.Clone()
	est := &cost.Estimator{Store: q.engine.viewOf(sn).probes, Doc: doc}
	if err := est.Estimate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Explain renders the cost-annotated plan and ordered list for doc over
// sn's pinned version (nil: the live store).
func (q *Query) Explain(sn *Snapshot, doc mass.DocID) (string, error) {
	p, err := q.Estimate(sn, doc)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("query: %s\noptimized: %v\n", q.expr, q.optimized)
	out += opt.Explain(p)
	for _, line := range q.trace {
		out += "rewrite: " + line + "\n"
	}
	return out, nil
}

// ExplainAnalyze estimates the plan, executes it to completion, and
// renders each operator's estimated bounds next to its actual execution
// counters — the empirical check that the cost model's OUT values really
// are upper bounds. The annotated clone is what executes, so the
// per-operator stats refer to operators carrying fresh estimates while
// the shared plan stays untouched. Use Analyze for the structured form.
func (q *Query) ExplainAnalyze(sn *Snapshot, doc mass.DocID) (string, error) {
	a, err := q.Analyze(sn, doc)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("query: %s\noptimized: %v\n", q.expr, q.optimized) + a.String(), nil
}
