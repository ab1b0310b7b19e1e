// Package exec is VAMANA's query execution engine (paper §VII): an
// iterative, pipelined, index-based evaluator over physical plans. Each
// operator is a demand-driven iterator in one of three states — INITIAL,
// FETCHING, OUT_OF_TUPLES — whose context is set dynamically from the
// tuples of its context child (Algorithms 1 and 2). Tuples are FLEX keys;
// nodes are materialized from storage only when actually needed.
package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/mass"
	"vamana/internal/obs"
	"vamana/internal/plan"
	"vamana/internal/xmldoc"
	"vamana/internal/xpath"
)

// Limiter is the per-run governance limiter the executor enforces: it is
// govern.Limiter re-exported at the execution layer, which arms it from
// Context.Ctx and Context.Limits. A nil *Limiter means ungoverned.
type Limiter = govern.Limiter

// Context is the execution environment of one query run.
type Context struct {
	// Store is where the run pins the view it reads: a store's current
	// view, or a view the caller holds. The run holds the pin until it
	// finishes.
	Store mass.Source
	Doc   mass.DocID
	// Ctx and Limits govern the run: Run arms a limiter from them (into
	// the pooled run state, so a governed query costs no extra
	// allocation) that drives cancellation and deadline checks in the
	// pull loop and the axis scans, plus resource-budget accounting
	// (results here, page reads and record decodes in storage). A nil or
	// never-canceled Ctx with zero Limits means ungoverned — the
	// pre-governance fast path, at the cost of a few nil checks. Run does
	// not poll Ctx's current state itself: callers pre-flight with
	// govern.CheckContext before compiling, so the immediate poll happens
	// exactly once per query.
	Ctx    context.Context
	Limits govern.Limits
	// Start is the initial context node bound to the leaf operators of
	// the plan's context path; the engine uses the document root when
	// empty (paper §V-B). An XQuery-style caller may bind any node.
	Start flex.Key
	// Vars binds $name variable references to node sets.
	Vars map[string][]flex.Key
	// Ordered materializes the result set and delivers it in document
	// order. Pipelined delivery (the default) streams results in plan
	// order, which for reverse axes is not document order; most engines
	// (and the XPath data model's node-set semantics) leave this
	// implementation-defined, so ordering is opt-in.
	Ordered bool
	// Trace records a per-step span for this run: open/close timestamps
	// (offsets from FinishStart), tuples in/scanned/out, and pages-read /
	// records-decoded deltas, read back through Iterator.StepSpans. A
	// traced run always arms an accounting limiter (even with a Background
	// context and zero limits) so storage consumption is attributable.
	Trace bool
	// Account arms the limiter for per-query resource accounting without
	// span recording — the slow-query log uses it so every entry can carry
	// storage deltas. Implied by Trace.
	Account bool
	// OnFinish, when set, is invoked exactly once when the iterator
	// finishes (exhaustion or error) — after the run's batched metrics
	// are flushed. The serving layer uses it to close out per-query
	// latency and trace records without allocating a closure per query:
	// the hook is a long-lived method value, and per-run state travels
	// in FinishStart/FinishObj.
	OnFinish func(*Iterator)
	// FinishStart is carried through to Iterator.StartTime for the
	// OnFinish hook (typically the query's start timestamp).
	FinishStart time.Time
	// FinishObj is carried through to Iterator.FinishObj for the
	// OnFinish hook. Storing a pointer here does not allocate.
	FinishObj any
	// Batch sets the operator pull-batch size: how many tuples one
	// nextBatch call moves between operators (and how many index entries
	// one bulk cursor advance decodes). 0 means DefaultBatch; values are
	// clamped to [1, MaxBatch]. Batch 1 degenerates to tuple-at-a-time
	// execution with identical delivery order at every batch size.
	Batch int
}

// DefaultBatch is the executor's default pull-batch size. Picked by the
// vbench batch sweep (see EXPERIMENTS.md): throughput on scan-heavy
// shapes saturates between 64 and 256, and 128 keeps the per-run key
// slab small.
const DefaultBatch = 128

// MaxBatch caps Context.Batch: beyond this the key slabs dominate the
// run state for no measurable throughput gain.
const MaxBatch = 1024

// State is an operator's execution state (paper §VII).
type State uint8

const (
	// Initial: the operator has not yet been asked for a tuple.
	Initial State = iota
	// Fetching: the operator is producing tuples.
	Fetching
	// OutOfTuples: the operator (and its context child) is exhausted.
	OutOfTuples
)

// String returns the paper's spelling of the state.
func (s State) String() string {
	switch s {
	case Initial:
		return "INITIAL"
	case Fetching:
		return "FETCHING"
	default:
		return "OUT_OF_TUPLES"
	}
}

// Iterator streams a query's resulting tuples. The shared execution
// environment is embedded (not separately allocated): operators hold a
// pointer into the Iterator, which escapes to the heap exactly once per
// run.
type Iterator struct {
	env      env
	root     execNode
	rs       *runState
	cur      flex.Key
	err      error
	done     bool
	finished bool // finishRun already fired
	pinned   bool // holds a pin on env.view until finishRun

	// Delivery buffer: Next serves tuples out of the last batch pulled
	// from the pipeline root. out is carved from the run-state key slab;
	// fill is the adaptive refill size (it starts small and doubles up to
	// len(out), so a caller that abandons the iterator after one tuple —
	// the exists / first-match pattern — never pays for a full batch).
	out        []flex.Key
	outPos     int
	outLen     int
	fill       int
	pendingErr error
	maxResults uint64 // MaxResults budget (0 = none); caps refill size

	nResults    uint64
	onFinish    func(*Iterator)
	finishStart time.Time
	finishObj   any
}

// runState is the pooled per-run executor state: the step arena, the
// stats registry, and the governance limiter. Pooling it makes warm
// serving runs allocation-free in the pipeline setup and — because arena
// slots keep their mass.Scanner buffers (cursor, range keys) across
// runs — in the axis binds too. The limiter lives here so arming a
// governed run costs no pool round-trip on top of the one runState
// already makes.
type runState struct {
	arena []stepExec
	steps []*stepExec
	// keys backs the run's batch buffers (the iterator's delivery buffer
	// and each non-leaf step's context buffer), carved by env.scratch.
	// Pooled with the rest of the run state so warm batched runs stay
	// allocation-free.
	keys []flex.Key
	// emitted backs rootExec's sorted-mode dedup log, pooled so the
	// per-result append never regrows across warm runs.
	emitted []flex.Key
	lim     Limiter
	// fetch reads the run's result nodes (Iterator.Node) through one
	// positioned cursor on the clustered index of the run's view.
	fetch mass.Fetcher
}

var runPool sync.Pool

// Run builds an executable pipeline for p and returns its iterator.
//
// Callers should Close the iterator when done with it (including after
// natural exhaustion, once any Stats have been read): Close returns the
// run's pooled state to the executor pool. An unclosed iterator is only
// a missed reuse, not a leak — the garbage collector reclaims it.
func Run(p *plan.Plan, ctx Context) (*Iterator, error) {
	if ctx.Store == nil {
		return nil, fmt.Errorf("exec: nil store")
	}
	view, err := ctx.Store.Pin()
	if err != nil {
		return nil, err
	}
	start := ctx.Start
	if start == "" {
		start = flex.Root
	}
	it := &Iterator{
		env:         env{view: view, doc: ctx.Doc, start: start, vars: ctx.Vars, building: true},
		pinned:      true,
		onFinish:    ctx.OnFinish,
		finishStart: ctx.FinishStart,
		finishObj:   ctx.FinishObj,
	}
	e := &it.env
	if ctx.Trace {
		e.traced = true
		e.traceBase = ctx.FinishStart
		if e.traceBase.IsZero() {
			e.traceBase = time.Now()
		}
	}
	batch := ctx.Batch
	if batch <= 0 {
		batch = DefaultBatch
	} else if batch > MaxBatch {
		batch = MaxBatch
	}
	e.batch = batch
	account := ctx.Trace || ctx.Account
	n := countSteps(p.Root)
	rs, _ := runPool.Get().(*runState)
	if rs == nil {
		rs = &runState{}
	}
	if cap(rs.arena) < n {
		// Never grow an arena in place: operators hold pointers into it.
		rs.arena = make([]stepExec, 0, n)
	}
	if cap(rs.steps) < n {
		rs.steps = make([]*stepExec, 0, n)
	}
	// One batch buffer per step (only child-bearing steps carve one)
	// plus the iterator's delivery buffer.
	if need := (n + 1) * batch; cap(rs.keys) < need {
		rs.keys = make([]flex.Key, need)
	}
	rs.fetch.Reset(view)
	it.rs = rs
	e.arena = rs.arena[:0]
	e.steps = rs.steps[:0]
	e.keys = rs.keys[:cap(rs.keys)]
	e.keysOff = 0
	e.emittedLog = rs.emitted[:0]
	if account {
		e.lim = govern.ArmAccounting(&rs.lim, ctx.Ctx, ctx.Limits)
	} else {
		e.lim = govern.Arm(&rs.lim, ctx.Ctx, ctx.Limits)
	}
	root, err := e.build(p.Root)
	e.building = false
	if err != nil {
		it.pinned = false
		view.Unpin()
		it.release()
		return nil, err
	}
	if ctx.Ordered {
		root = &orderedExec{child: root}
	}
	root.reset(start)
	it.root = root
	it.out = e.scratch(batch)
	// The first refill pulls a single tuple — identical laziness to
	// tuple-at-a-time for first-match consumers — and doubles from there,
	// reaching the full batch within a handful of refills on drains.
	it.fill = 1
	it.maxResults = ctx.Limits.MaxResults
	return it, nil
}

// release returns the run's pooled state — the arena/steps backing, the
// governance limiter and the result fetcher. The iterator's env stops
// referencing them, so Stats after release see an empty registry. Pooled
// step slots keep only their buffers: each scanner is Released (cursor
// position, tree and view references, ancestor stack, limiter, tally)
// and the slot's pointers into this run are dropped, and the fetcher
// drops its tree and leaf, so pooled state neither keeps a retired
// view's trees alive nor carries a leaf position into a run that reads a
// later view.
func (it *Iterator) release() {
	rs := it.rs
	if rs == nil {
		return
	}
	if it.env.lim != nil {
		// The limiter is embedded in rs: disarm so pooling it does not
		// pin the run's context.
		govern.Disarm(&rs.lim)
	}
	it.env.lim = nil
	it.rs = nil
	rs.fetch.Reset(nil)
	for i := range it.env.arena {
		se := &it.env.arena[i]
		se.scanner.Release()
		clear(se.preds)
		se.env, se.op, se.child, se.scan, se.batch = nil, nil, nil, nil, nil
	}
	rs.arena = it.env.arena[:0]
	rs.steps = it.env.steps[:0]
	// Recover the dedup log's (possibly grown) backing from the root
	// operator; a run that degraded to the hash set has nothing to return.
	if r := it.env.rootNode; r != nil {
		if r.emitted != nil {
			rs.emitted = r.emitted[:0]
		}
		it.env.rootNode = nil
	}
	it.env.emittedLog = nil
	it.env.arena = nil
	it.env.steps = nil
	it.env.keys = nil
	it.out = nil
	runPool.Put(rs)
}

// Close finishes and releases the iterator: the run's batched metrics are
// flushed and the OnFinish hook fires (both exactly once, whether or not
// the iterator was drained), further Next calls return false, and the
// pooled execution state goes back to the executor pool. Idempotent.
// Callers that read Stats must do so before Close.
func (it *Iterator) Close() {
	it.done = true
	it.finishRun()
	it.release()
}

// orderedExec drains its child and re-delivers the tuples sorted by FLEX
// key (= document order).
type orderedExec struct {
	child  execNode
	out    []flex.Key
	i      int
	filled bool
}

func (o *orderedExec) reset(ctx flex.Key) {
	o.child.reset(ctx)
	o.out, o.i, o.filled = nil, 0, false
}

func (o *orderedExec) nextBatch(dst []flex.Key) (int, error) {
	if !o.filled {
		for {
			n, err := o.child.nextBatch(dst)
			if err != nil {
				// Nothing was delivered out of this operator yet, so the
				// whole materialized set is discarded with the error — the
				// same all-or-nothing semantics as tuple-at-a-time.
				return 0, err
			}
			if n == 0 {
				break
			}
			o.out = append(o.out, dst[:n]...)
		}
		sort.Slice(o.out, func(i, j int) bool { return o.out[i] < o.out[j] })
		o.filled = true
	}
	n := copy(dst, o.out[o.i:])
	o.i += n
	return n, nil
}

// Next advances to the next result tuple.
func (it *Iterator) Next() bool {
	if it.done {
		return false
	}
	lim := it.env.lim
	if err := lim.Tick(); err != nil {
		it.fail(err)
		return false
	}
	if it.outPos >= it.outLen && !it.refill() {
		return false
	}
	// Charge the delivery: with MaxResults = N, exactly N tuples are
	// delivered and materializing the (N+1)th trips the budget. The
	// charge stays per-delivery (not per-batch) so the typed budget error
	// carries the same Used count batched as unbatched; refill bounds its
	// batch to the budget's remainder so the pipeline never computes far
	// past the trip point.
	if err := lim.AddResults(1); err != nil {
		it.fail(err)
		return false
	}
	it.cur = it.out[it.outPos]
	it.outPos++
	it.nResults++
	return true
}

// refill pulls the next batch of tuples from the pipeline root into the
// delivery buffer, reporting whether any are available. The refill size
// ramps up from a few tuples to the full batch so early-terminating
// callers stay cheap, and is capped near the results budget.
func (it *Iterator) refill() bool {
	if it.pendingErr != nil {
		it.fail(it.pendingErr)
		return false
	}
	b := it.fill
	if b < len(it.out) {
		it.fill = min(b*2, len(it.out))
	}
	if it.maxResults > 0 {
		if rem := it.maxResults - it.nResults + 1; uint64(b) > rem {
			b = int(rem)
		}
	}
	n, err := it.root.nextBatch(it.out[:b])
	it.outPos, it.outLen = 0, n
	if err != nil {
		if n == 0 {
			it.fail(err)
			return false
		}
		// The tuples preceding the failure are delivered first; the error
		// surfaces on the refill after them.
		it.pendingErr = err
		return true
	}
	if n == 0 {
		it.done = true
		it.finishRun()
		return false
	}
	return true
}

// fail poisons the iterator with err and finishes the run.
func (it *Iterator) fail(err error) {
	it.err = err
	it.done = true
	it.finishRun()
}

// finishRun fires once per iterator, when the run completes (exhaustion,
// error, or Close): it flushes the run's batched counters to the global
// metrics, classifies governance outcomes, and invokes the OnFinish hook.
// Iterators abandoned without Close simply never flush.
func (it *Iterator) finishRun() {
	if it.finished {
		return
	}
	it.finished = true
	if it.pinned {
		// The run's counters reach the store's totals once, here, and the
		// pin goes: a view the store has replaced is released with its
		// last reader.
		it.pinned = false
		it.env.view.Add(&it.env.tally)
		it.env.view.Unpin()
	}
	if it.env.traced {
		// Close any span still open (early termination, error, or an
		// operator upstream of the failure) before the OnFinish hook reads
		// the spans — the hook's end-to-end total is taken after this, so
		// every span closes within the query's own interval.
		now := it.env.nowNS()
		for _, s := range it.env.steps {
			if s.spanOpened && s.closeNS == 0 {
				s.closeNS = now
			}
		}
	}
	if it.err != nil {
		switch {
		case errors.Is(it.err, govern.ErrCanceled):
			obs.QueriesCanceled.Inc()
		case errors.Is(it.err, govern.ErrDeadlineExceeded):
			obs.QueriesDeadlineExceeded.Inc()
		case errors.Is(it.err, govern.ErrBudgetExceeded):
			obs.QueriesBudgetExceeded.Inc()
		}
	}
	obs.ExecRuns.Inc()
	obs.ExecResults.Add(it.nResults)
	var scanned uint64
	for _, s := range it.env.steps {
		scanned += s.nScanned
	}
	obs.ExecEntriesScanned.Add(scanned)
	var binds uint64
	for a, n := range it.env.axisBinds {
		if n != 0 {
			binds += n
			axisScanCounters[a].Add(n)
		}
	}
	obs.ExecAxisScans.Add(binds)
	if it.onFinish != nil {
		it.onFinish(it)
	}
}

// Results returns the number of result tuples delivered so far.
func (it *Iterator) Results() uint64 { return it.nResults }

// Limiter returns the run's governance limiter (nil when ungoverned), for
// consumption snapshots in slow-query and trace records.
func (it *Iterator) Limiter() *Limiter { return it.env.lim }

// Doc returns the document the iterator runs against.
func (it *Iterator) Doc() mass.DocID { return it.env.doc }

// View returns the view the iterator reads, pinned until the run
// finishes.
func (it *Iterator) View() *mass.View { return it.env.view }

// Start returns the run's initial context node (flex.Root unless
// Context.Start set another).
func (it *Iterator) Start() flex.Key { return it.env.start }

// StartTime returns the Context.FinishStart timestamp the iterator was
// created with (zero if none was set).
func (it *Iterator) StartTime() time.Time { return it.finishStart }

// FinishObj returns the opaque value the iterator was created with via
// Context.FinishObj.
func (it *Iterator) FinishObj() any { return it.finishObj }

// axisScanCounters are the per-axis global scan-bind counters, flushed
// from the env's batch at run finish. Axis names are sanitized for the
// exposition format ('-' is not a valid metric-name character).
var axisScanCounters = func() [mass.AxisCount]*obs.Counter {
	var a [mass.AxisCount]*obs.Counter
	for i := range a {
		name := strings.ReplaceAll(mass.Axis(i).String(), "-", "_")
		a[i] = obs.NewCounter("vamana_exec_axis_scans_"+name+"_total",
			"Axis-scan bindings on the "+mass.Axis(i).String()+" axis across completed runs.")
	}
	return a
}()

// Key returns the FLEX key of the current tuple.
func (it *Iterator) Key() flex.Key { return it.cur }

// Node materializes the current tuple's node from storage, through the
// run's fetcher: results arrive mostly in document order, so consecutive
// fetches stay on the leaf the previous one read. It counts into the
// run's tally, which reaches the store's totals when the run finishes.
func (it *Iterator) Node() (xmldoc.Node, error) {
	if it.finished {
		return xmldoc.Node{}, fmt.Errorf("exec: no current tuple: the run has finished")
	}
	n, ok, err := it.rs.fetch.Node(&it.env.tally, it.env.doc, it.cur)
	if err != nil {
		return xmldoc.Node{}, err
	}
	if !ok {
		return xmldoc.Node{}, fmt.Errorf("exec: tuple %q has no stored node", it.cur)
	}
	return n, nil
}

// Err reports the first error encountered.
func (it *Iterator) Err() error { return it.err }

// env carries shared execution state.
type env struct {
	// view is the version the run reads, pinned until the run finishes;
	// tally counts the storage work of every scan of the run, transient
	// predicate subplans included.
	view  *mass.View
	tally mass.Tally
	doc   mass.DocID
	start flex.Key
	vars  map[string][]flex.Key
	// lim is the run's governance limiter (nil = ungoverned), shared by
	// the whole pipeline including transient predicate subplans.
	lim *govern.Limiter
	// steps registers every step operator's executor so Iterator.Stats
	// can read back actual tuple counts after a run. Registration only
	// happens while the initial pipeline is being built (building=true);
	// subplans constructed later by the expression evaluator are
	// transient and unregistered.
	steps    []*stepExec
	building bool
	// arena holds the step executors of the initial pipeline in one
	// allocation. It is sized by a pre-walk of the plan and never grows
	// (newStep falls back to individual allocations once full), so
	// pointers into it stay valid.
	arena []stepExec
	// batch is the run's pull-batch size; keys/keysOff back the batch
	// buffers env.scratch carves (the slab is pooled via runState).
	batch   int
	keys    []flex.Key
	keysOff int
	// emittedLog is the pooled backing for the first rootExec's dedup
	// log, handed over in build; rootNode remembers that operator so
	// release can recover the capacity.
	emittedLog []flex.Key
	rootNode   *rootExec
	// axisBinds batches per-axis scan-bind counts for the whole run
	// (including transient predicate subplans, which share this env);
	// flushed to the global counters once, at run finish.
	axisBinds [mass.AxisCount]uint64
	// traced switches per-step span recording on for this run: step
	// executors stamp open/close offsets against traceBase and accumulate
	// pages-read / records-decoded deltas off the (always armed) limiter.
	// The untraced hot path pays one branch per next call.
	traced    bool
	traceBase time.Time
}

// nowNS returns the current span-clock reading: nanoseconds since the
// run's trace base.
func (e *env) nowNS() int64 { return int64(time.Since(e.traceBase)) }

// scratch carves an n-key batch buffer from the run's pooled key slab,
// falling back to a fresh allocation once the slab is exhausted
// (transient subplans built during expression evaluation, which already
// allocate elsewhere).
func (e *env) scratch(n int) []flex.Key {
	if e.keysOff+n <= len(e.keys) {
		b := e.keys[e.keysOff : e.keysOff+n : e.keysOff+n]
		e.keysOff += n
		return b
	}
	return make([]flex.Key, n)
}

// newStep carves a step executor out of the arena, or allocates one when
// the arena is exhausted (transient subplans built during expression
// evaluation). Arena slots are pooled across runs, so a carved slot is
// reset here — except its scanner and predicate list, whose buffers are
// the cross-run allocation win (release emptied both; BindScan rebinds
// all of the scanner's semantic state).
func (e *env) newStep(op *plan.Step) *stepExec {
	var se *stepExec
	if len(e.arena) < cap(e.arena) {
		e.arena = e.arena[:len(e.arena)+1]
		se = &e.arena[len(e.arena)-1]
		*se = stepExec{env: e, op: op, preds: se.preds[:0], scanner: se.scanner}
	} else {
		se = &stepExec{env: e, op: op}
	}
	se.scanner.SetContextKind(producedKind(op.Context))
	return se
}

// producedKind reports the node kind every tuple of op's output has, when
// op's axis and node test fix it: the context-kind hint a step hands its
// scanner (mass.Scanner.SetContextKind). Anything but a step — a union,
// the run's start node — is unknown.
func producedKind(op plan.Op) (xmldoc.Kind, bool) {
	st, ok := op.(*plan.Step)
	if !ok {
		return 0, false
	}
	switch st.Axis {
	case mass.AxisValue:
		return xmldoc.KindText, true
	case mass.AxisAttrValue:
		return xmldoc.KindAttribute, true
	case mass.AxisNumRange:
		return 0, false // text nodes and attributes share the numeric index
	}
	switch st.Test.Type {
	case mass.TestName, mass.TestWildcard:
		return st.Axis.Principal(), true
	case mass.TestText:
		return xmldoc.KindText, true
	case mass.TestComment:
		return xmldoc.KindComment, true
	case mass.TestPI:
		return xmldoc.KindPI, true
	}
	return 0, false // node() takes the kind of whatever is on the axis
}

// countSteps sizes the arena: every Step operator reachable from op,
// including those inside predicate subplans.
func countSteps(op plan.Op) int {
	switch t := op.(type) {
	case *plan.Root:
		return countSteps(t.Context)
	case *plan.Step:
		n := 1
		if t.Context != nil {
			n += countSteps(t.Context)
		}
		for _, p := range t.Preds {
			n += countSteps(p)
		}
		return n
	case *plan.Join:
		return countSteps(t.Left) + countSteps(t.Right)
	case *plan.Exist:
		return countSteps(t.Pred)
	case *plan.BinaryPred:
		return countSteps(t.Left) + countSteps(t.Right)
	default:
		return 0
	}
}

// OpStats reports one step operator's actual execution counters.
type OpStats struct {
	Op      *plan.Step
	In      uint64 // context tuples bound (actual IN)
	Scanned uint64 // index entries examined
	Out     uint64 // tuples emitted (actual OUT)
}

// Stats returns per-step actual tuple counts accumulated so far —
// meaningful after the iterator is drained. Together with the estimator's
// annotations this is EXPLAIN ANALYZE: estimated upper bounds next to
// observed cardinalities.
func (it *Iterator) Stats() []OpStats {
	out := make([]OpStats, 0, len(it.env.steps))
	for _, s := range it.env.steps {
		in := s.nIn
		if s.child == nil {
			// For leaf operators the paper defines IN as the tuples
			// received from the index (Case 1), not contexts bound.
			in = s.nScanned
		}
		out = append(out, OpStats{Op: s.op, In: in, Scanned: s.nScanned, Out: s.nOut})
	}
	return out
}

// NumSteps reports how many step operators the run registered. Together
// with StepStat it is the allocation-free counterpart of Stats, for
// hot-path consumers (the cost observatory) that fold per-step counters
// on every query. Valid until the iterator is released (within an
// OnFinish hook, or before Close).
func (it *Iterator) NumSteps() int { return len(it.env.steps) }

// StepStat returns the i'th step's actual counters without allocating.
// Indexes follow the same order as Stats.
func (it *Iterator) StepStat(i int) OpStats {
	s := it.env.steps[i]
	in := s.nIn
	if s.child == nil {
		// Leaf operators: IN is the tuples received from the index
		// (Case 1), matching Stats.
		in = s.nScanned
	}
	return OpStats{Op: s.op, In: in, Scanned: s.nScanned, Out: s.nOut}
}

// StepSpan is one step operator's recorded execution span, produced on
// traced runs (Context.Trace). Offsets are nanoseconds on the run's trace
// clock (Context.FinishStart). PagesRead and RecordsDecoded are inclusive
// of child-operator work performed while this step was pulling.
type StepSpan struct {
	Op               *plan.Step
	StartNS, EndNS   int64
	In, Scanned, Out uint64
	PagesRead        uint64
	RecordsDecoded   uint64
}

// StepSpans returns the per-step spans of a traced run — meaningful once
// the iterator has finished, and (like Stats) only before Close releases
// the pooled run state. Nil for untraced runs.
func (it *Iterator) StepSpans() []StepSpan {
	if !it.env.traced {
		return nil
	}
	out := make([]StepSpan, 0, len(it.env.steps))
	for _, s := range it.env.steps {
		if !s.spanOpened {
			continue // never pulled (e.g. short-circuited union branch)
		}
		out = append(out, StepSpan{
			Op:             s.op,
			StartNS:        s.openNS,
			EndNS:          s.closeNS,
			In:             s.nIn,
			Scanned:        s.nScanned,
			Out:            s.nOut,
			PagesRead:      s.spanPages,
			RecordsDecoded: s.spanRecs,
		})
	}
	return out
}

// execNode is a pipelined operator instance. reset rebinds the context of
// the subtree's leaf operators and rewinds all state to INITIAL.
//
// nextBatch is the batched pull: it fills dst (len >= 1, owned by the
// caller for the duration of the call) with the operator's next tuples
// and returns how many it produced. An operator fills dst completely
// unless it is exhausted or fails, so a short count means
// exhausted-or-error and n == 0 with a nil error means exhausted. On a
// non-nil error the dst[:n] tuples are valid — they precede the failure
// in stream order and callers deliver them before surfacing the error.
// Delivery order is independent of len(dst): batch size never changes
// the tuple stream, only how many move per call.
type execNode interface {
	reset(ctx flex.Key)
	nextBatch(dst []flex.Key) (int, error)
}

// build constructs the executable mirror of a plan operator.
func (e *env) build(op plan.Op) (execNode, error) {
	switch t := op.(type) {
	case *plan.Root:
		child, err := e.build(t.Context)
		if err != nil {
			return nil, err
		}
		re := &rootExec{child: child, distinct: t.Distinct}
		if e.rootNode == nil {
			re.emitted = e.emittedLog[:0]
			e.emittedLog = nil
			e.rootNode = re
		}
		return re, nil
	case *plan.Step:
		se := e.newStep(t)
		if e.building {
			e.steps = append(e.steps, se)
		}
		if t.Context != nil {
			child, err := e.build(t.Context)
			if err != nil {
				return nil, err
			}
			se.child = child
			se.ctxBuf = e.scratch(e.batch)
		}
		for _, p := range t.Preds {
			pe, err := e.buildPred(p)
			if err != nil {
				return nil, err
			}
			se.preds = append(se.preds, pe)
			if usesLast(p) {
				se.needLast = true
			}
		}
		return se, nil
	case *plan.Join:
		l, err := e.build(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.build(t.Right)
		if err != nil {
			return nil, err
		}
		if t.Cond != plan.JoinUnion {
			return nil, fmt.Errorf("exec: unsupported join condition %v", t.Cond)
		}
		return &unionExec{left: l, right: r}, nil
	default:
		return nil, fmt.Errorf("exec: operator %T cannot produce a tuple stream", op)
	}
}

// rootExec implements R: it forwards every tuple of its context child,
// optionally eliminating duplicates (the node-set semantics the paper's
// Q2 rewrite relies on).
type rootExec struct {
	child    execNode
	distinct bool
	// Streaming dedup, adaptive: forward-axis pipelines — the scan-heavy
	// common case — deliver tuples in non-decreasing document order, where
	// every duplicate is adjacent, so a last-key compare plus an ordered
	// log of emitted keys suffices and no hashing happens at all. The
	// first out-of-order tuple (reverse axes, interleaved union arms)
	// materializes the hash set from the log and the stream degrades to
	// map-based dedup. Single-result point lookups never build either.
	haveLast bool
	last     flex.Key
	emitted  []flex.Key // sorted-mode log; nil once seen is built
	seen     map[flex.Key]struct{}
	state    State
}

func (r *rootExec) reset(ctx flex.Key) {
	r.child.reset(ctx)
	r.haveLast = false
	r.last = ""
	r.emitted = r.emitted[:0]
	r.seen = nil
	r.state = Initial
}

func (r *rootExec) nextBatch(dst []flex.Key) (int, error) {
	if r.state == OutOfTuples {
		return 0, nil
	}
	r.state = Fetching
	n := 0
	for n < len(dst) {
		m, err := r.child.nextBatch(dst[n:])
		if err != nil {
			if m > 0 && r.distinct {
				m = r.dedup(dst[n : n+m])
			}
			r.state = OutOfTuples
			return n + m, err
		}
		if m == 0 {
			r.state = OutOfTuples
			break
		}
		if r.distinct {
			m = r.dedup(dst[n : n+m])
		}
		n += m
	}
	return n, nil
}

// dedup compacts batch in place, dropping tuples already seen across the
// whole stream, and returns the surviving count. While the stream has
// been non-decreasing it runs in sorted mode (last-key compare, append
// to the log); the first out-of-order tuple switches to the hash set.
// The emitted stream is identical either way — only the membership
// structure differs.
func (r *rootExec) dedup(batch []flex.Key) int {
	w := 0
	for _, k := range batch {
		if r.seen == nil {
			if !r.haveLast || k > r.last {
				r.haveLast, r.last = true, k
				r.emitted = append(r.emitted, k)
				batch[w] = k
				w++
				continue
			}
			if k == r.last {
				continue
			}
			// k < last: the sorted streak is over. Everything emitted so
			// far is in the log; build the set from it and degrade.
			r.seen = make(map[flex.Key]struct{}, len(r.emitted)+1)
			for _, e := range r.emitted {
				r.seen[e] = struct{}{}
			}
			r.emitted = nil
		}
		if _, dup := r.seen[k]; dup {
			continue
		}
		r.seen[k] = struct{}{}
		batch[w] = k
		w++
	}
	return w
}

// stepExec implements φ per Algorithm 1. A leaf (no context child) scans
// the index from its dynamically-bound context; a non-leaf opens one scan
// per context tuple (Algorithm 2, GetNextContext).
type stepExec struct {
	env      *env
	op       *plan.Step
	child    execNode
	preds    []predEval
	needLast bool

	// Actual tuple counters, read back by Iterator.Stats (the ANALYZE
	// half of EXPLAIN ANALYZE): contexts bound, candidates scanned,
	// tuples emitted.
	nIn, nScanned, nOut uint64

	// Span state, written only on traced runs (env.traced): open/close
	// offsets on the run's trace clock and inclusive storage-consumption
	// deltas (pages read, records decoded — including work done by child
	// operators while this step's next was on the stack).
	spanOpened          bool
	openNS, closeNS     int64
	spanPages, spanRecs uint64

	state   State
	leafCtx flex.Key
	scan    *mass.Scanner
	// scanner is the reusable axis-scan state (cursor, range-key buffers)
	// rebound to each context tuple, so binding a context allocates
	// nothing after the first.
	scanner mass.Scanner
	// Context batching (Algorithm 2, vectorized): context tuples are
	// pulled from the child a batch at a time into ctxBuf (carved from
	// the run's key slab) and bound one by one. A child error with
	// buffered contexts still ahead of it is deferred in ctxErr until
	// they are consumed, preserving tuple-at-a-time stream order.
	ctxBuf  []flex.Key
	ctxPos  int
	ctxLen  int
	ctxDone bool
	ctxErr  error
	// Streaming predicate positions: posCounts[j] counts candidates that
	// passed predicates 0..j-1 for the current context (XPath proximity
	// position). posBuf backs it inline for the common few-predicate case.
	posCounts []int
	posBuf    [4]int
	// Batch mode (only when a predicate uses last()): candidates for the
	// current context are materialized and filtered in one pass.
	batch []flex.Key
	bi    int
}

func (s *stepExec) reset(ctx flex.Key) {
	s.state = Initial
	s.leafCtx = ctx
	s.scan = nil
	s.batch = nil
	s.bi = 0
	s.ctxPos, s.ctxLen = 0, 0
	s.ctxDone, s.ctxErr = false, nil
	if s.child != nil {
		s.child.reset(ctx)
	}
}

func (s *stepExec) nextBatch(dst []flex.Key) (int, error) {
	if !s.env.traced {
		return s.advance(dst)
	}
	return s.tracedNextBatch(dst)
}

// tracedNextBatch wraps advance with span recording: the first call
// stamps the open offset, every call stamps the close offset on return
// (so the span always ends at the operator's last activity — an operator
// whose subplan is short-circuited, like an exists-predicate's, still
// nests inside its parent), and every call accumulates the limiter's
// pages-read / records-decoded movement while this step's frame was
// live — inclusive of child operators, so span consumption nests the way
// span time does. Batching moves whole batches per call, so the trace
// clock is read once per batch instead of once per tuple.
func (s *stepExec) tracedNextBatch(dst []flex.Key) (int, error) {
	if !s.spanOpened {
		s.spanOpened = true
		s.openNS = s.env.nowNS()
	}
	lim := s.env.lim
	p0, r0 := lim.PagesRead(), lim.DecodedRecords()
	n, err := s.advance(dst)
	s.spanPages += lim.PagesRead() - p0
	s.spanRecs += lim.DecodedRecords() - r0
	s.closeNS = s.env.nowNS()
	return n, err
}

// advance is the untraced step pull loop (Algorithm 1/2, vectorized):
// it fills dst from the current scan — pulling index keys a batch at a
// time and filtering them in place — binding the next context whenever a
// scan drains, until dst is full or the step runs out of contexts.
func (s *stepExec) advance(dst []flex.Key) (int, error) {
	n := 0
	for n < len(dst) && s.state != OutOfTuples {
		if s.scan == nil {
			// INITIAL, or the previous context's scan is exhausted: bind
			// the next context (Algorithm 2). The child pull is sized by
			// the caller's own demand so early-terminating consumers stay
			// lazy through the whole pipeline.
			ctx, ok, err := s.nextContext(len(dst))
			if err != nil {
				return n, err
			}
			if !ok {
				s.state = OutOfTuples
				break
			}
			s.bindContext(ctx)
			if s.needLast {
				if err := s.fillBatch(); err != nil {
					return n, err
				}
			}
		}
		if s.needLast {
			for s.bi < len(s.batch) && n < len(dst) {
				dst[n] = s.batch[s.bi]
				s.bi++
				s.nOut++
				n++
			}
			if s.bi >= len(s.batch) {
				s.scan = nil
				continue
			}
			return n, nil // dst full
		}
		// Pull a run of candidate keys straight into the caller's buffer;
		// predicates then filter the run in place (the write index never
		// overtakes the read index).
		free := dst[n:]
		m, err := s.scan.NextKeys(free)
		s.nScanned += uint64(m)
		if len(s.preds) == 0 {
			n += m
			s.nOut += uint64(m)
		} else {
			for i := 0; i < m; i++ {
				pass, perr := s.applyPreds(free[i])
				if perr != nil {
					return n, perr
				}
				if pass {
					dst[n] = free[i]
					s.nOut++
					n++
				}
			}
		}
		if err != nil {
			s.state = OutOfTuples
			return n, err
		}
		if m < len(free) {
			s.scan = nil // this context's scan is exhausted
		}
		if n == len(dst) {
			return n, nil
		}
	}
	return n, nil
}

// nextContext returns the next context tuple to bind, refilling the
// context buffer from the child when it drains. want (the caller's
// remaining demand) bounds the refill so a one-tuple pull at the top of
// the pipeline pulls one context at every level below it.
func (s *stepExec) nextContext(want int) (flex.Key, bool, error) {
	if s.child == nil {
		if s.state != Initial {
			return "", false, nil
		}
		return s.leafCtx, true, nil
	}
	if s.ctxPos >= s.ctxLen {
		if s.ctxErr != nil {
			return "", false, s.ctxErr
		}
		if s.ctxDone {
			return "", false, nil
		}
		if want > len(s.ctxBuf) {
			want = len(s.ctxBuf)
		}
		if want < 1 {
			want = 1
		}
		m, err := s.child.nextBatch(s.ctxBuf[:want])
		s.ctxPos, s.ctxLen = 0, m
		if err != nil {
			if m == 0 {
				return "", false, err
			}
			s.ctxErr = err // surface after the buffered contexts drain
		} else if m == 0 {
			s.ctxDone = true
			return "", false, nil
		}
	}
	k := s.ctxBuf[s.ctxPos]
	s.ctxPos++
	return k, true, nil
}

// bindContext opens the axis scan for one context tuple.
func (s *stepExec) bindContext(ctx flex.Key) {
	s.nIn++
	s.env.axisBinds[s.op.Axis]++
	s.state = Fetching
	s.scanner.SetLimiter(s.env.lim)
	s.scanner.SetTally(&s.env.tally)
	if s.op.Axis == mass.AxisNumRange {
		s.scan = s.env.view.BindNumRange(&s.scanner, s.env.doc, ctx,
			s.op.NumLo, s.op.NumLoIncl, s.op.NumHi, s.op.NumHiIncl)
	} else {
		s.scan = s.env.view.BindScan(&s.scanner, s.env.doc, ctx, s.op.Axis, s.op.Test)
	}
	// Reuse the proximity-position buffer across context bindings;
	// a non-leaf step binds one context per input tuple, so this
	// would otherwise allocate once per tuple.
	if s.posCounts == nil {
		if len(s.preds) <= len(s.posBuf) {
			s.posCounts = s.posBuf[:len(s.preds)]
		} else {
			s.posCounts = make([]int, len(s.preds))
		}
	}
	for i := range s.posCounts {
		s.posCounts[i] = 0
	}
}

// applyPreds evaluates the step's predicates in order against candidate,
// maintaining per-predicate proximity positions.
func (s *stepExec) applyPreds(k flex.Key) (bool, error) {
	for j, p := range s.preds {
		s.posCounts[j]++
		ok, err := p.eval(k, s.posCounts[j], -1)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// fillBatch materializes and filters the current scan when a predicate
// needs last().
func (s *stepExec) fillBatch() error {
	var cand []flex.Key
	var buf [16]flex.Key
	for {
		n, err := s.scan.NextKeys(buf[:])
		cand = append(cand, buf[:n]...)
		s.nScanned += uint64(n)
		if err != nil {
			return err
		}
		if n < len(buf) {
			break
		}
	}
	for j, p := range s.preds {
		var kept []flex.Key
		total := len(cand)
		for i, k := range cand {
			ok, err := p.eval(k, i+1, total)
			if err != nil {
				return err
			}
			if ok {
				kept = append(kept, k)
			}
		}
		cand = kept
		_ = j
	}
	s.batch = cand
	s.bi = 0
	return nil
}

// unionExec implements J(UNION): both inputs are drained, deduplicated and
// delivered in document order (the node-set semantics of '|').
type unionExec struct {
	left, right execNode
	out         []flex.Key
	i           int
	filled      bool
}

func (u *unionExec) reset(ctx flex.Key) {
	u.left.reset(ctx)
	u.right.reset(ctx)
	u.out = nil
	u.i = 0
	u.filled = false
}

func (u *unionExec) nextBatch(dst []flex.Key) (int, error) {
	if !u.filled {
		// Both sides drain through dst as scratch; the merged set is
		// deduplicated batch by batch and sorted once, so union results
		// are identical at every batch size.
		seen := map[flex.Key]struct{}{}
		for _, side := range []execNode{u.left, u.right} {
			for {
				n, err := side.nextBatch(dst)
				if err != nil {
					return 0, err
				}
				if n == 0 {
					break
				}
				for _, k := range dst[:n] {
					if _, dup := seen[k]; !dup {
						seen[k] = struct{}{}
						u.out = append(u.out, k)
					}
				}
			}
		}
		sort.Slice(u.out, func(i, j int) bool { return u.out[i] < u.out[j] })
		u.filled = true
	}
	n := copy(dst, u.out[u.i:])
	u.i += n
	return n, nil
}

// usesLast reports whether a predicate operator's expression calls last()
// anywhere (forcing batch evaluation of the owning step).
func usesLast(op plan.Op) bool {
	ep, ok := op.(*plan.ExprPred)
	if !ok {
		return false
	}
	return exprUsesLast(ep.Expr)
}

func exprUsesLast(e xpath.Expr) bool {
	switch t := e.(type) {
	case *xpath.FuncCall:
		if t.Name == "last" {
			return true
		}
		for _, a := range t.Args {
			if exprUsesLast(a) {
				return true
			}
		}
	case *xpath.Binary:
		return exprUsesLast(t.Left) || exprUsesLast(t.Right)
	case *xpath.Unary:
		return exprUsesLast(t.Operand)
	case *xpath.Filter:
		if exprUsesLast(t.Primary) {
			return true
		}
		for _, p := range t.Predicates {
			if exprUsesLast(p) {
				return true
			}
		}
	case *xpath.LocationPath:
		for _, s := range t.Steps {
			for _, p := range s.Predicates {
				if exprUsesLast(p) {
					return true
				}
			}
		}
	}
	return false
}
