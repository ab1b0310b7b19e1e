// Package govern is VAMANA's query-governance substrate: per-query
// cancellation, deadlines, and resource budgets, threaded through every
// level of the read path (executor pull loops, MASS axis cursors, B+-tree
// seeks and page reads).
//
// The paper's premise is that worst-case XPath evaluation cost is
// unavoidable for some inputs; a serving engine therefore has to *bound*
// it. A Limiter is that bound for one query run: it carries the caller's
// context.Context, an optional wall-clock deadline, and optional resource
// budgets, and every storage layer charges its consumption against it.
// When a limit trips, the charge site returns a typed error that
// propagates up the pipeline like any other execution error, poisoning
// the iterator.
//
// A Limiter belongs to exactly one query run and is only touched by the
// goroutine driving that run, so none of its state is atomic — the whole
// fast path is one counter increment and one branch, amortizing the
// expensive checks (context poll, time.Now) to every checkInterval-th
// call. An ungoverned run uses a nil *Limiter; every method is nil-safe
// and free in that case, which is what keeps the default serving path at
// zero governance overhead.
package govern

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Error taxonomy. The sentinels unwrap to the matching context errors, so
// callers can test either level:
//
//	errors.Is(err, govern.ErrDeadlineExceeded) // engine-level
//	errors.Is(err, context.DeadlineExceeded)   // context-level
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled error = &sentinelError{msg: "vamana: query canceled", base: context.Canceled}
	// ErrDeadlineExceeded reports that the query ran past its deadline —
	// either the context's or the per-query wall-clock Timeout budget.
	ErrDeadlineExceeded error = &sentinelError{msg: "vamana: query deadline exceeded", base: context.DeadlineExceeded}
	// ErrBudgetExceeded reports that a per-query resource budget tripped.
	// The concrete error is always a *BudgetError carrying which budget
	// and the consumption at trip time.
	ErrBudgetExceeded = errors.New("vamana: query resource budget exceeded")
)

// sentinelError is a stable package-level error that also satisfies
// errors.Is against the context error it corresponds to.
type sentinelError struct {
	msg  string
	base error
}

func (e *sentinelError) Error() string { return e.msg }
func (e *sentinelError) Unwrap() error { return e.base }

// BudgetError reports which resource budget a query tripped and how much
// it had consumed when it tripped. It unwraps to ErrBudgetExceeded.
type BudgetError struct {
	// Budget names the tripped budget: "results", "pages-read", or
	// "decoded-records".
	Budget string
	// Limit is the configured budget.
	Limit uint64
	// Used is the consumption at trip time (the first value > Limit).
	Used uint64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("vamana: query %s budget exceeded (limit %d, used %d)", e.Budget, e.Limit, e.Used)
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Limits configures a query's resource budgets. The zero value means
// fully unlimited; each individual zero field leaves that budget off.
type Limits struct {
	// Timeout bounds the query's wall-clock time from the moment
	// execution starts. It composes with any context deadline: the
	// earlier of the two wins.
	Timeout time.Duration
	// MaxResults bounds the number of result tuples delivered.
	MaxResults uint64
	// MaxPagesRead bounds the number of index pages read from the pager
	// on behalf of this query (loads no decoded page frame served;
	// decoded frames are free).
	MaxPagesRead uint64
	// MaxDecodedRecords bounds the number of clustered-index records
	// decoded on behalf of this query.
	MaxDecodedRecords uint64
}

// Unlimited reports whether no budget is set.
func (l Limits) Unlimited() bool { return l == Limits{} }

// Usage is a Limiter's consumption snapshot.
type Usage struct {
	Results        uint64
	PagesRead      uint64
	DecodedRecords uint64
	NodeCacheHits  uint64
	Elapsed        time.Duration
}

// checkInterval amortizes the expensive cancellation checks (context
// poll + time.Now) to one in every checkInterval cheap checks. Must be a
// power of two. At typical index-scan rates of tens of millions of
// entries per second this detects cancellation within microseconds while
// keeping the per-entry cost to an increment and a mask.
const checkInterval = 256

// Limiter enforces cancellation, a deadline and resource budgets for one
// query run. It is owned by the single goroutine driving the run and must
// not be shared. A nil *Limiter is valid and means "ungoverned": every
// method is a nil-check away from free.
type Limiter struct {
	ctx         context.Context
	cancelable  bool
	deadline    time.Time
	hasDeadline bool
	start       time.Time
	limits      Limits

	results, pagesRead, decodedRecords uint64
	// nodeCacheHits counts index node loads served from cache — pure
	// accounting (no budget trips on it); it exists so per-query trace and
	// slow-query records can tell an I/O-bound query from a CPU-bound one.
	nodeCacheHits uint64

	tick uint64
	err  error
}

// Arm initializes l (which must be zero — fresh or Disarmed) for one
// run and returns it, or returns nil and leaves l untouched when the run
// is ungoverned: ctx can never be canceled and limits sets no budget.
// The limiter's clock starts now; limits.Timeout counts from this moment.
// Callers embed the Limiter in per-run state they pool themselves, so a
// governed query allocates nothing for it; Disarm l before reusing the
// memory.
func Arm(l *Limiter, ctx context.Context, limits Limits) *Limiter {
	if ctx == nil {
		ctx = context.Background()
	}
	cancelable := ctx.Done() != nil
	deadline, hasDeadline := ctx.Deadline()
	if !cancelable && !hasDeadline && limits.Unlimited() {
		return nil
	}
	l.arm(ctx, limits, cancelable, deadline, hasDeadline)
	return l
}

// ArmAccounting is Arm for runs that need per-query resource accounting
// regardless of governance: it always arms l, even when ctx can never be
// canceled and limits sets no budget. Traced and slow-tracked queries use
// it so their span and slow-log records can report pages read, records
// decoded and cache hits — the budgets simply never trip when unset.
func ArmAccounting(l *Limiter, ctx context.Context, limits Limits) *Limiter {
	if ctx == nil {
		ctx = context.Background()
	}
	cancelable := ctx.Done() != nil
	deadline, hasDeadline := ctx.Deadline()
	l.arm(ctx, limits, cancelable, deadline, hasDeadline)
	return l
}

func (l *Limiter) arm(ctx context.Context, limits Limits, cancelable bool, deadline time.Time, hasDeadline bool) {
	*l = Limiter{ctx: ctx, cancelable: cancelable, limits: limits}
	if limits.Timeout > 0 {
		// The start timestamp exists only to anchor Timeout (and Usage's
		// Elapsed); without one this path skips the time.Now call.
		l.start = time.Now()
		td := l.start.Add(limits.Timeout)
		if !hasDeadline || td.Before(deadline) {
			deadline = td
		}
		hasDeadline = true
	}
	l.deadline, l.hasDeadline = deadline, hasDeadline
}

// Disarm zeroes an Arm-ed limiter so its memory can be pooled or re-armed
// without pinning the run's context. Errors already returned remain
// valid — they are plain values.
func Disarm(l *Limiter) { *l = Limiter{} }

// CheckContext maps ctx's current state to the governance taxonomy
// without building a limiter: ErrCanceled or ErrDeadlineExceeded when ctx
// is already done, nil otherwise (including for a nil ctx). It is the
// pre-flight for paths that arm their limiter later.
func CheckContext(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	switch ctx.Err() {
	case nil:
		return nil
	case context.Canceled:
		return ErrCanceled
	default:
		return ErrDeadlineExceeded
	}
}

// Err returns the governance error recorded so far, if any. Once set it
// is sticky: the run is considered poisoned.
func (l *Limiter) Err() error {
	if l == nil {
		return nil
	}
	return l.err
}

func (l *Limiter) checkNow() error {
	// ctx.Err() is an atomic load on the stdlib context kinds — much
	// cheaper than a non-blocking receive on the Done channel, and this
	// runs on every immediate Check plus once per checkInterval ticks.
	if l.cancelable {
		if cerr := l.ctx.Err(); cerr != nil {
			if cerr == context.Canceled {
				l.err = ErrCanceled
			} else {
				l.err = ErrDeadlineExceeded
			}
			return l.err
		}
	}
	if l.hasDeadline && !time.Now().Before(l.deadline) {
		l.err = ErrDeadlineExceeded
		return l.err
	}
	return nil
}

// Tick is the amortized per-unit-of-work cancellation check: callers
// invoke it once per tuple pulled or index entry examined, and every
// checkInterval-th call performs the real poll. The units in between
// cost one increment and one branch — the body is small enough for the
// compiler to inline at every charge site, which is what keeps governed
// scans within the serving overhead budget.
func (l *Limiter) Tick() error {
	if l == nil {
		return nil
	}
	l.tick++
	if l.tick&(checkInterval-1) != 0 {
		return nil
	}
	return l.tickSlow()
}

// tickSlow is kept out of line so Tick itself stays under the inlining
// budget; it is reached once per checkInterval ticks.
//
//go:noinline
func (l *Limiter) tickSlow() error {
	if l.err != nil {
		return l.err
	}
	return l.checkNow()
}

// exceeded records and returns the budget trip. Kept out of the Add*
// fast paths so those stay inlinable.
func (l *Limiter) exceeded(budget string, limit, used uint64) error {
	l.err = &BudgetError{Budget: budget, Limit: limit, Used: used}
	return l.err
}

// AddResults charges n delivered result tuples against MaxResults.
func (l *Limiter) AddResults(n uint64) error {
	if l == nil {
		return nil
	}
	l.results += n
	if l.limits.MaxResults > 0 && l.results > l.limits.MaxResults {
		return l.exceeded("results", l.limits.MaxResults, l.results)
	}
	return nil
}

// AddPages charges n pager page reads against MaxPagesRead. Charged
// before the read happens, so a tripped budget prevents the I/O.
func (l *Limiter) AddPages(n uint64) error {
	if l == nil {
		return nil
	}
	l.pagesRead += n
	if l.limits.MaxPagesRead > 0 && l.pagesRead > l.limits.MaxPagesRead {
		return l.exceeded("pages-read", l.limits.MaxPagesRead, l.pagesRead)
	}
	return nil
}

// AddRecords charges n decoded clustered records against
// MaxDecodedRecords.
func (l *Limiter) AddRecords(n uint64) error {
	if l == nil {
		return nil
	}
	l.decodedRecords += n
	if l.limits.MaxDecodedRecords > 0 && l.decodedRecords > l.limits.MaxDecodedRecords {
		return l.exceeded("decoded-records", l.limits.MaxDecodedRecords, l.decodedRecords)
	}
	return nil
}

// AddCacheHits records n index node-cache hits — accounting only, no
// budget ever trips on it. Inlined at the hottest node-load site, so the
// body is one nil check and one add.
func (l *Limiter) AddCacheHits(n uint64) {
	if l != nil {
		l.nodeCacheHits += n
	}
}

// PagesRead returns the pager page reads charged so far (nil-safe).
func (l *Limiter) PagesRead() uint64 {
	if l == nil {
		return 0
	}
	return l.pagesRead
}

// DecodedRecords returns the clustered records decoded so far (nil-safe).
func (l *Limiter) DecodedRecords() uint64 {
	if l == nil {
		return 0
	}
	return l.decodedRecords
}

// NodeCacheHits returns the index node-cache hits recorded so far
// (nil-safe).
func (l *Limiter) NodeCacheHits() uint64 {
	if l == nil {
		return 0
	}
	return l.nodeCacheHits
}

// Usage snapshots the consumption so far. Elapsed is only tracked when a
// Timeout budget is set (the clock exists to anchor it).
func (l *Limiter) Usage() Usage {
	if l == nil {
		return Usage{}
	}
	u := Usage{
		Results:        l.results,
		PagesRead:      l.pagesRead,
		DecodedRecords: l.decodedRecords,
		NodeCacheHits:  l.nodeCacheHits,
	}
	if !l.start.IsZero() {
		u.Elapsed = time.Since(l.start)
	}
	return u
}
