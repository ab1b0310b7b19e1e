// Package vamana is a scalable, cost-driven XPath engine — a Go
// implementation of the VAMANA system (Raghavan, Deschler, Rundensteiner;
// ICDE 2005).
//
// VAMANA stores XML documents in MASS, a multi-axis storage structure
// built on counted B+-trees over FLEX structural keys, and evaluates
// XPath 1.0 expressions with index-only, pipelined query plans. A
// cost-driven, rule-based optimizer rewrites plans using exact statistics
// probed directly from the indexes, so cost information stays correct
// under document updates with no histogram maintenance.
//
// # Quick start
//
//	db, err := vamana.Open(vamana.Options{}) // in-memory store
//	defer db.Close()
//	doc, err := db.LoadXML("auction", file)
//	res, err := db.QueryContext(ctx, doc, "//person/address",
//		vamana.WithTimeout(time.Second), vamana.WithMaxResults(1000))
//	for n, err := range res.All() {
//		if err != nil {
//			break // ctx canceled, deadline hit, or budget tripped
//		}
//		fmt.Println(n.Name, n.Value)
//	}
//
// Every query is governed: the context's cancellation and deadline are
// observed throughout execution — down to the index cursors — and
// per-query resource budgets (results, pages read, records decoded,
// wall-clock) stop runaway queries with distinct typed errors (see
// ErrCanceled, ErrDeadlineExceeded, BudgetError).
//
// All 13 XPath axes are supported, along with value, range and position
// predicates, node-set union, and the XPath 1.0 core function library.
package vamana

import (
	"context"
	"errors"
	"io"
	"iter"
	"net/http"
	"time"

	"vamana/internal/core"
	"vamana/internal/exec"
	"vamana/internal/flex"
	"vamana/internal/mass"
	"vamana/internal/obs"
	"vamana/internal/xmldoc"
)

// Options configures a database.
type Options struct {
	// Path is the backing page file for the MASS store. Empty keeps the
	// whole store in memory. A file-backed store persists across Open
	// calls.
	Path string
	// CachePages bounds the clean index pages a file-backed store keeps
	// in memory: one cache of 8 KiB page images, each read in place by its
	// index node and shared by the live store and every snapshot; the
	// working set beyond it is read from disk on demand. 0 selects a
	// default of 6,144 pages (about 50 MB). This is the knob that keeps
	// read memory flat however large the documents grow; pages written
	// but not yet durable stay in memory until they are. An in-memory
	// store holds every page once and ignores it.
	CachePages int
	// Backend, when non-nil, overrides Path as the raw storage under the
	// page layer. Production stores use Path; Backend exists for tests
	// and tools that need to interpose on the database's I/O (e.g. fault
	// injection, read-only snapshots).
	Backend Backend
	// SlowQueryThreshold records queries — DB.Query and Query.Run alike —
	// at or above this end-to-end latency into the slow-query ring
	// (DB.SlowQueries) and, when SlowQueryLog is set, as one line per
	// query there. 0 disables slow-query tracking.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives one line per slow query (e.g. os.Stderr or a
	// log file). Ignored unless SlowQueryThreshold is set.
	SlowQueryLog io.Writer
	// TraceEvery records a full span tree for 1 in N queries (1 traces
	// every query, 0 disables) into the ring. When a query is
	// not sampled the serving hot path allocates no trace state, so
	// sampling bounds the observability overhead regardless of query
	// rate.
	TraceEvery int
	// TraceSink receives each sampled record after its query finishes.
	TraceSink func(*QueryTrace)
	// FlightRecorderSize sizes the database's ring of recent records —
	// slow queries, traced queries and served requests, readable via
	// DB.RecentTraces and the /debug/vamana endpoints; 0 keeps the
	// default of 256. A positive size also records spans for every query
	// (not just the 1-in-TraceEvery samples), so a query that turns out
	// slow or budget-tripped already has its span tree in the ring.
	FlightRecorderSize int
	// DefaultLimits is the resource-budget set applied to every query run
	// on this database. Per-query options (WithTimeout, WithMaxResults, …)
	// override it field by field; WithLimits replaces it. The zero value
	// leaves every budget off.
	DefaultLimits Limits
	// ExecBatchSize sets the executor's pull-batch size: how many result
	// tuples each operator hands its consumer per call (0 selects the
	// built-in default, currently 128; 1 degenerates to tuple-at-a-time
	// execution). Results are identical at every batch size — this knob
	// exists for benchmarking the batch sweep and for differential
	// testing, not for tuning production workloads.
	ExecBatchSize int
}

// QueryTrace is the one record of a query or served request: compile-
// vs-serve split, cache-hit status, end-to-end latency, result count,
// storage consumption, the worst-misestimated operator of a slow query,
// the serving outcome of a request, and (when spans were recorded) the
// operator span tree. The database's ring stores it; the slow-query log
// and vamanad's access log are its one-line forms.
type QueryTrace = obs.QueryTrace

// Span is one operator's recorded execution within a query trace.
type Span = obs.Span

// WriteChromeTrace writes traces as Chrome trace-event JSON, loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, traces []*QueryTrace) error {
	return obs.WriteChromeTrace(w, traces)
}

// RequestTrace joins a serving-layer request to the engine record of
// the query that runs under it: attach one to a query context with
// WithRequestTrace and the engine stamps the request ID and tenant into
// its record; when the run was slow or traced, the record is handed
// back in Captured instead of the ring so the serving layer can graft
// its own spans above it and record the combined record
// (DB.RecordTrace) — one ring entry per request, serve and engine spans
// in one timeline.
type RequestTrace = core.RequestTrace

// WithRequestTrace returns a context carrying rt; queries run under it
// join their traces to the request (see RequestTrace).
func WithRequestTrace(ctx context.Context, rt *RequestTrace) context.Context {
	return core.WithRequestTrace(ctx, rt)
}

// StorageMetrics snapshots a database's storage-level activity counters:
// pager I/O, B+-tree node loads and page-cache evictions, records
// decoded, statistics probes that reached storage.
type StorageMetrics = mass.StoreMetrics

// DB is a VAMANA database: a MASS store holding any number of indexed XML
// documents plus the query pipeline. It is safe for concurrent use.
type DB struct {
	engine   *core.Engine
	defaults Limits
}

// Open creates or reopens a database.
func Open(opts Options) (*DB, error) {
	e, err := core.Open(core.Options{
		Path:               opts.Path,
		CachePages:         opts.CachePages,
		Backend:            opts.Backend,
		SlowQueryThreshold: opts.SlowQueryThreshold,
		SlowQueryLog:       opts.SlowQueryLog,
		TraceEvery:         opts.TraceEvery,
		TraceSink:          opts.TraceSink,
		FlightRecorderSize: opts.FlightRecorderSize,
		ExecBatch:          opts.ExecBatchSize,
	})
	if err != nil {
		return nil, err
	}
	return &DB{engine: e, defaults: opts.DefaultLimits}, nil
}

// Close flushes indexes and releases the store.
func (db *DB) Close() error { return db.engine.Close() }

// Document is a handle to one loaded document. A handle obtained from
// DB reads the latest committed state; one obtained from
// Snapshot.Document reads that snapshot's pinned version. Mutations go
// through DB.Update.
type Document struct {
	db   *DB
	id   mass.DocID
	name string
	// snap binds the handle to a snapshot's frozen view; nil for live
	// handles.
	snap *Snapshot
}

// read pins the version every direct read through d observes: a
// snapshot handle's pinned version (ErrSnapshotClosed once it is
// closed), otherwise the latest committed one — never an open
// transaction's buffered writes. The caller unpins it.
func (d *Document) read() (*mass.View, error) {
	if d.snap == nil {
		return d.db.engine.Store().Pin()
	}
	if d.snap.closed.Load() {
		return nil, ErrSnapshotClosed
	}
	v, err := d.snap.cs.View().Pin()
	if err != nil {
		return nil, ErrSnapshotClosed
	}
	return v, nil
}

// sn is the engine snapshot reads through d run on: nil for a live
// handle.
func (d *Document) sn() (*core.Snapshot, error) {
	if d.snap == nil {
		return nil, nil
	}
	if d.snap.closed.Load() {
		return nil, ErrSnapshotClosed
	}
	return d.snap.cs, nil
}

// LoadXML shreds and indexes the XML document from r under a unique name.
// Loading is streaming; memory use does not grow with document size.
func (db *DB) LoadXML(name string, r io.Reader) (*Document, error) {
	id, err := db.engine.Load(name, r)
	if err != nil {
		return nil, err
	}
	return &Document{db: db, id: id, name: name}, nil
}

// LoadXMLString is LoadXML from a string.
func (db *DB) LoadXMLString(name, src string) (*Document, error) {
	id, err := db.engine.LoadString(name, src)
	if err != nil {
		return nil, err
	}
	return &Document{db: db, id: id, name: name}, nil
}

// Document returns the handle for a previously loaded document. The
// error for an unknown name satisfies errors.Is(err, ErrNoSuchDocument).
func (db *DB) Document(name string) (*Document, error) {
	id, ok := db.engine.Store().DocID(name)
	if !ok {
		return nil, wrapNoDoc(mass.ErrNoDoc, name)
	}
	return &Document{db: db, id: id, name: name}, nil
}

// Documents lists the loaded document names.
func (db *DB) Documents() []string {
	v, _ := db.engine.Store().Pin()
	defer v.Unpin()
	return v.Documents()
}

// Drop removes a document and all its index entries. Dropping an unknown
// name fails with an error satisfying errors.Is(err, ErrNoSuchDocument);
// dropping a document that open snapshots or in-flight result streams
// could still read fails with one satisfying errors.Is(err,
// ErrDocumentBusy) — close them and retry.
func (db *DB) Drop(name string) error {
	if err := db.engine.Store().DropDocument(name); err != nil {
		if errors.Is(err, mass.ErrNoDoc) {
			return wrapNoDoc(err, name)
		}
		return err
	}
	return nil
}

// Name returns the document's registered name.
func (d *Document) Name() string { return d.name }

// NodeKind classifies result nodes, following the XPath data model.
type NodeKind uint8

// Node kinds.
const (
	KindDocument  = NodeKind(xmldoc.KindDocument)
	KindElement   = NodeKind(xmldoc.KindElement)
	KindAttribute = NodeKind(xmldoc.KindAttribute)
	KindText      = NodeKind(xmldoc.KindText)
	KindComment   = NodeKind(xmldoc.KindComment)
	KindPI        = NodeKind(xmldoc.KindPI)
	KindNamespace = NodeKind(xmldoc.KindNamespace)
)

// String returns the kind's XPath-ish name.
func (k NodeKind) String() string { return xmldoc.Kind(k).String() }

// Node is one result node. Key is its FLEX structural key: a dotted,
// lexicographically document-ordered identifier ("a.d.y.c") that remains
// stable under sibling insertions.
type Node struct {
	Key   string
	Kind  NodeKind
	Name  string
	Value string
}

// Query is a compiled XPath expression, produced by DB.Prepare: the
// default plan (the paper's "VQP") without a document, or the
// cost-driven optimizer's plan ("VQP-OPT") with WithDocument. A query may
// be run many times and against any document, though an optimized plan's
// rewrites were chosen using the statistics of the document it was
// prepared against.
type Query struct {
	q *core.Query
}

// CompileOption adjusts one Prepare call.
type CompileOption func(*compileConfig)

type compileConfig struct {
	doc     *Document
	noOpt   bool
	noCache bool
}

// WithDocument compiles against doc's index statistics: the cost-driven
// optimizer runs and its rewrites are chosen using doc's exact counts.
// Without a document the default (unoptimized) plan is built, since
// there are no statistics to cost rewrites against.
func WithDocument(doc *Document) CompileOption {
	return func(c *compileConfig) { c.doc = doc }
}

// WithoutOptimization skips the cost-driven optimizer even when a
// document was supplied — the paper's baseline "VQP" plan, kept mainly
// for benchmarking the optimizer's effect.
func WithoutOptimization() CompileOption {
	return func(c *compileConfig) { c.noOpt = true }
}

// WithoutCache bypasses the plan cache: the expression is compiled
// fresh and the result is not retained. Use for one-off expressions
// that would otherwise churn the cache.
func WithoutCache() CompileOption {
	return func(c *compileConfig) { c.noCache = true }
}

// Prepare compiles expr for repeated execution with Query.Run. By
// default the compilation goes through the plan cache; add WithDocument
// to optimize against a document's statistics (cached per document and
// invalidated automatically when the document changes). Prepare with
// WithDocument is exactly the compilation half of DB.Query.
func (db *DB) Prepare(expr string, opts ...CompileOption) (*Query, error) {
	var cfg compileConfig
	for _, o := range opts {
		o(&cfg)
	}
	optimized := cfg.doc != nil && !cfg.noOpt
	var (
		q   *core.Query
		err error
	)
	switch {
	case cfg.noCache && optimized:
		q, err = db.engine.CompileOptimized(cfg.doc.id, expr)
	case cfg.noCache:
		q, err = db.engine.Compile(expr)
	default:
		var id mass.DocID
		if cfg.doc != nil {
			id = cfg.doc.id
		}
		q, err = db.engine.CompileCached(id, expr, optimized)
	}
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// Query is the one-shot serving fast path: it compiles expr with the
// cost-driven optimizer against doc's statistics and executes it, going
// through the plan cache. The first call for a given (document,
// expression) pair pays for parsing, optimization and statistics probes;
// repeated calls cost one cache lookup plus execution. Updating the
// document bumps its statistics epoch, which transparently invalidates
// its cached plans — the next Query re-optimizes against fresh counts.
//
// Query is safe for concurrent use from any number of goroutines; cached
// plans are immutable and shared.
//
// Query is QueryContext with context.Background() and the database's
// default budgets; use QueryContext to attach cancellation, a deadline,
// or per-query budgets.
func (db *DB) Query(doc *Document, expr string) (*Results, error) {
	return db.QueryContext(context.Background(), doc, expr)
}

// CacheStats reports the serving fast path's effectiveness: plan-cache
// hits/misses/evictions/invalidations and, one layer down, the
// statistics-probe memo feeding the optimizer.
type CacheStats = core.CacheStats

// CacheStats returns the database's current cache counters.
func (db *DB) CacheStats() CacheStats { return db.engine.CacheStats() }

// StorageMetrics returns the database's storage counters: page reads and
// writes, index node loads (served by an already-decoded page or not),
// page-cache evictions, node splits, cursor seeks, counted-range probes,
// records decoded, and statistics probes that reached storage (memo
// misses). Reads served from snapshots count too.
func (db *DB) StorageMetrics() StorageMetrics { return db.engine.Store().Metrics() }

// SlowQueries returns the ring's records at or above
// Options.SlowQueryThreshold, most recent first. Empty unless the
// threshold was set.
func (db *DB) SlowQueries() []*QueryTrace { return db.engine.SlowQueries() }

// RecentTraces returns every record in the database's ring — slow
// queries, traced queries and served requests — most recent first.
func (db *DB) RecentTraces() []*QueryTrace { return db.engine.Traces() }

// RecordTrace appends an externally assembled record to the ring,
// assigning it an ID when it has none. The serving daemon writes its one
// record per request through it (serve-layer fields and spans over a
// Captured engine record, see RequestTrace).
func (db *DB) RecordTrace(t *QueryTrace) { db.engine.RecordTrace(t) }

// WriteMetrics writes the full metric exposition in Prometheus text
// format: the process-global execution and serving metrics followed by
// this database's storage and cache counters.
func (db *DB) WriteMetrics(w io.Writer) error { return db.engine.WriteMetrics(w) }

// CostProfile is a snapshot of the cost-model observatory: q-error
// accuracy profiles per operator class and worst offenders.
type CostProfile = core.CostProfile

// CostClassProfile summarizes one operator class (axis × rewrite-rule
// provenance) in a CostProfile.
type CostClassProfile = core.CostClassProfile

// CostOffender is the worst-misestimated observation kept per class.
type CostOffender = core.CostOffender

// CostProfile returns the observatory's current snapshot.
func (db *DB) CostProfile() CostProfile { return db.engine.CostProfile() }

// MetricsHandler returns an HTTP handler serving WriteMetrics — mount it
// on a mux (or pass to http.ListenAndServe) to expose the database's
// metrics endpoint.
func (db *DB) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = db.WriteMetrics(w)
	})
}

// Expr returns the query's source expression.
func (q *Query) Expr() string { return q.q.Expr() }

// Optimized reports whether the cost-driven optimizer ran on this query.
func (q *Query) Optimized() bool { return q.q.Optimized() }

// Explain renders the cost-annotated physical plan, the ordered operator
// list L(P), and (for optimized queries) the rewrite decisions taken.
// Estimates come from the version the handle doc reads: a snapshot
// handle's pinned version, otherwise the last committed one.
func (q *Query) Explain(doc *Document) (string, error) {
	sn, err := doc.sn()
	if err != nil {
		return "", err
	}
	return q.q.Explain(sn, doc.id)
}

// ExplainAnalyze estimates, executes, and renders the plan with estimated
// bounds next to the actual per-operator tuple counts observed during
// execution. It estimates and executes against the version Explain
// reads.
func (q *Query) ExplainAnalyze(doc *Document) (string, error) {
	sn, err := doc.sn()
	if err != nil {
		return "", err
	}
	return q.q.ExplainAnalyze(sn, doc.id)
}

// Run executes the query against doc. By default results stream from
// the document root in pipeline order; options adjust the run: Ordered
// delivers in document order, From sets the initial context node and
// variable bindings, and the governance options (WithTimeout,
// WithMaxResults, …) layer budgets over the database defaults.
//
// The run reads the version DB.QueryContext would read for doc and is
// observed like any query (latency, slow-query log, traces, snapshot
// usage); only the compilation already happened, at Prepare.
func (q *Query) Run(ctx context.Context, doc *Document, opts ...QueryOption) (*Results, error) {
	sn, err := doc.sn()
	if err != nil {
		return nil, err
	}
	it, err := q.q.Run(ctx, sn, doc.id, doc.db.config(opts))
	return newResults(doc, it, err)
}

func flexKey(k string) flex.Key { return flex.Key(k) }

func flexVars(vars map[string][]string) map[string][]flex.Key {
	if vars == nil {
		return nil
	}
	v := make(map[string][]flex.Key, len(vars))
	for name, keys := range vars {
		ks := make([]flex.Key, len(keys))
		for i, k := range keys {
			ks[i] = flex.Key(k)
		}
		v[name] = ks
	}
	return v
}

// Results streams a query's result node set.
//
// A fully drained Results releases its execution resources automatically;
// call Close when abandoning one early (it is idempotent, and All /
// AllKeys / Keys do it for you). After the stream ends, Err reports how:
// nil for normal exhaustion, or the typed governance error (ErrCanceled,
// ErrDeadlineExceeded, *BudgetError) that stopped the run.
type Results struct {
	doc    *Document
	it     *exec.Iterator
	closed bool
}

// newResults wraps a started run's iterator, passing a start error on. A
// snapshot closed between the handle's check and the run's pin reports
// as closed.
func newResults(doc *Document, it *exec.Iterator, err error) (*Results, error) {
	if errors.Is(err, mass.ErrReleased) {
		err = ErrSnapshotClosed
	}
	if err != nil {
		return nil, err
	}
	return &Results{doc: doc, it: it}, nil
}

// Next advances to the next result and reports whether one exists. When
// the stream ends — exhausted, failed, or governed away — the underlying
// execution resources are released automatically.
func (r *Results) Next() bool {
	if r.closed {
		return false
	}
	if r.it.Next() {
		return true
	}
	r.Close()
	return false
}

// Close releases the query's pooled execution state. It is idempotent and
// safe on an already-drained Results; Err remains readable after Close.
// Only early abandonment strictly needs it — exhausting the stream (or
// using All, AllKeys or Keys) closes implicitly.
func (r *Results) Close() error {
	if !r.closed {
		r.closed = true
		r.it.Close()
	}
	return nil
}

// Key returns the current result's FLEX key without touching storage.
func (r *Results) Key() string { return string(r.it.Key()) }

// Node materializes the current result node from storage.
func (r *Results) Node() (Node, error) {
	n, err := r.it.Node()
	if err != nil {
		return Node{}, err
	}
	return Node{Key: string(n.Key), Kind: NodeKind(n.Kind), Name: n.Name, Value: n.Value}, nil
}

// StringValue computes the XPath string-value of the current result (for
// elements, the concatenated descendant text).
func (r *Results) StringValue() (string, error) {
	return r.doc.StringValue(r.Key())
}

// Err reports the first error encountered while streaming.
func (r *Results) Err() error { return r.it.Err() }

// All returns an iterator over the materialized result nodes, for use
// with range-over-func:
//
//	for n, err := range res.All() {
//		if err != nil { ... ; break }
//		use(n)
//	}
//
// A non-nil err is the stream's terminal error (governance trip or
// storage failure) and is always the last pair yielded. Breaking out
// early is safe: the results are closed when the loop exits either way.
func (r *Results) All() iter.Seq2[Node, error] {
	return func(yield func(Node, error) bool) {
		defer r.Close()
		for r.Next() {
			n, err := r.Node()
			if !yield(n, err) || err != nil {
				return
			}
		}
		if err := r.Err(); err != nil {
			yield(Node{}, err)
		}
	}
}

// AllKeys returns an iterator over the result FLEX keys without touching
// storage. Check Err after the loop: a governed-away stream simply stops
// yielding. Results are closed when the loop exits.
func (r *Results) AllKeys() iter.Seq[string] {
	return func(yield func(string) bool) {
		defer r.Close()
		for r.Next() {
			if !yield(r.Key()) {
				return
			}
		}
	}
}

// Keys drains the results into a slice of FLEX keys and closes them.
func (r *Results) Keys() ([]string, error) {
	var out []string
	for r.Next() {
		out = append(out, r.Key())
	}
	return out, r.Err()
}

// Stats exposes a document's exact index statistics — the same probes the
// cost model uses (counts are O(log n), no data pages touched).
type Stats struct {
	Nodes    uint64
	Elements uint64
	Texts    uint64
}

// Stats returns node-count statistics for the document.
func (d *Document) Stats() (Stats, error) {
	var st Stats
	v, err := d.read()
	if err != nil {
		return st, err
	}
	defer v.Unpin()
	if st.Nodes, err = v.CountNodes(d.id); err != nil {
		return st, err
	}
	if st.Elements, err = v.CountElements(d.id, ""); err != nil {
		return st, err
	}
	st.Texts, err = v.CountTexts(d.id, "")
	return st, err
}

// CountName returns the number of elements with the given name — COUNT in
// the paper's cost model.
func (d *Document) CountName(name string) (uint64, error) {
	v, err := d.read()
	if err != nil {
		return 0, err
	}
	defer v.Unpin()
	return v.CountName(d.id, name)
}

// TextCount returns the number of text nodes whose value equals v — TC in
// the paper's cost model.
func (d *Document) TextCount(v string) (uint64, error) {
	rv, err := d.read()
	if err != nil {
		return 0, err
	}
	defer rv.Unpin()
	return rv.TextCount(d.id, v, "")
}

// StringValue computes the XPath string-value of the node with the given
// FLEX key.
func (d *Document) StringValue(key string) (string, error) {
	v, err := d.read()
	if err != nil {
		return "", err
	}
	defer v.Unpin()
	return v.StringValue(d.id, flex.Key(key))
}

// WriteXML serializes the node at key (and its subtree) as XML to w.
// Passing the root key of a query result exports matched fragments;
// passing "a" (the document node) exports the whole document.
func (d *Document) WriteXML(key string, w io.Writer) error {
	v, err := d.read()
	if err != nil {
		return err
	}
	defer v.Unpin()
	return v.SerializeSubtree(d.id, flex.Key(key), w)
}

// NumericRangeCount returns the number of text nodes whose numeric value
// lies in [lo, hi] (use math.Inf for open ends), exactly: it walks the
// numeric value index entries in the range that belong to the document.
func (d *Document) NumericRangeCount(lo, hi float64) (uint64, error) {
	v, err := d.read()
	if err != nil {
		return 0, err
	}
	defer v.Unpin()
	return v.NumericRangeCount(d.id, lo, true, hi, true)
}

// Node fetches the node with the given FLEX key.
func (d *Document) Node(key string) (Node, bool, error) {
	v, err := d.read()
	if err != nil {
		return Node{}, false, err
	}
	defer v.Unpin()
	n, ok, err := v.Node(d.id, flex.Key(key))
	if err != nil || !ok {
		return Node{}, ok, err
	}
	return Node{Key: string(n.Key), Kind: NodeKind(n.Kind), Name: n.Name, Value: n.Value}, true, nil
}
