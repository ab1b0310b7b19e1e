package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"vamana/internal/mass"
	"vamana/internal/obs"
)

// RequestTrace carries a serving-layer request's identity into the
// engine and the finished engine trace back out. The serving layer
// attaches one to the query context (WithRequestTrace); a traced run
// stamps the request ID and tenant into its exported trace and, instead
// of recording into the flight ring directly, hands the export back via
// Captured — the serving layer grafts its own spans (queue wait, TTFB,
// stream drain) above the engine's root and records the combined tree
// (Engine.RecordTrace), so the ring holds one entry per request, not
// two.
type RequestTrace struct {
	// ID is the wire request ID (X-Vamana-Request), Tenant the tenant
	// the request billed to.
	ID     string
	Tenant string
	// Captured receives the engine's exported trace at query finish
	// when the run was traced; nil otherwise. Written by the finish
	// hook, read by the request goroutine after the iterator is closed
	// — the exactly-once finish contract orders the two.
	Captured *obs.QueryTrace
}

// requestTraceKey keys the context attachment of a *RequestTrace.
type requestTraceKey struct{}

// WithRequestTrace returns a context carrying rt; engine runs under it
// join their traces to the request (see RequestTrace).
func WithRequestTrace(ctx context.Context, rt *RequestTrace) context.Context {
	return context.WithValue(ctx, requestTraceKey{}, rt)
}

// requestTraceFrom extracts the request attachment, nil when absent.
// Only consulted on traced runs, so the untraced hot path never pays
// the context-value walk.
func requestTraceFrom(ctx context.Context) *RequestTrace {
	rt, _ := ctx.Value(requestTraceKey{}).(*RequestTrace)
	return rt
}

// TraceContext is a per-query execution trace, produced for 1-in-N
// QueryContext calls when sampling is configured (Options.TraceEvery).
// Sampled queries carry their TraceContext through the iterator's finish
// hook; unsampled cache-hit queries allocate nothing.
type TraceContext struct {
	// ID is the engine-assigned trace sequence number, unique per engine
	// lifetime; the slow-query ring references it to link a slow entry to
	// its flight-recorder trace.
	ID       uint64
	Expr     string
	Doc      mass.DocID
	DocName  string // resolved document name, set when spans are recorded
	Start    time.Time
	CacheHit bool          // plan came from the plan cache
	Compile  time.Duration // time to produce the plan (lookup or compile)
	Total    time.Duration // end-to-end, set when the iterator finishes
	Results  uint64        // result tuples delivered
	Err      error         // execution error, if any

	// Whole-query storage consumption, filled at finish from the run's
	// accounting limiter (zero when the run was ungoverned).
	PagesRead      uint64
	RecordsDecoded uint64
	NodeCacheHits  uint64

	// Root is the assembled operator span tree — present when the run
	// recorded spans (sampled, or the flight recorder is on).
	Root *obs.Span

	// Request and Tenant tie the trace to the serving-layer request it
	// ran under (empty outside vamanad). req, when non-nil, receives the
	// exported trace at finish instead of the flight ring — see
	// RequestTrace.
	Request string
	Tenant  string
	req     *RequestTrace

	// sampled distinguishes a 1-in-N trace (delivered to TraceSink and
	// counted) from a TraceContext allocated only to carry cache-miss
	// detail to the slow-query log.
	sampled bool
	// traced marks a run that recorded executor spans; queryFinished
	// assembles Root from them.
	traced bool
	// q is the executed query, kept so span assembly can walk its plan.
	q *Query
}

// SlowQuery is one entry of the engine's slow-query ring.
type SlowQuery struct {
	Expr     string
	Doc      mass.DocID
	Start    time.Time
	Total    time.Duration
	Results  uint64
	CacheHit bool
	// Storage consumption deltas for this query, from the run's
	// accounting limiter: together they answer whether the query was
	// I/O-bound (pages), decode-bound (records), or riding the node
	// cache (hits). Zero when the engine tracks no slow queries — the
	// limiter is only force-armed when a slowLog is configured.
	PagesRead      uint64
	RecordsDecoded uint64
	NodeCacheHits  uint64
	// TraceID links the entry to its flight-recorder trace (Engine.
	// Traces), zero when the query was not traced.
	TraceID uint64
	// WorstOp names the query's worst-misestimated operator (largest
	// q-error, when at least 2x) and WorstQErr its q-error — the cost
	// observatory's pointer at a possible mis-planning cause. Empty/zero
	// when the observatory is off or every estimate was within 2x.
	WorstOp   string
	WorstQErr float64
	// Err is the run's terminal error, if any — a governance trip
	// (canceled, deadline, budget) or an execution failure. A slow entry
	// with a deadline error is the signature of a query killed by its
	// timeout rather than one that finished slowly.
	Err error
}

// slowRingCap bounds the in-memory slow-query ring. Old entries are
// overwritten; the log writer (Options.SlowQueryLog) sees every entry.
const slowRingCap = 128

// slowLog collects queries exceeding the configured threshold: a bounded
// ring for programmatic access plus an optional line-oriented writer.
type slowLog struct {
	threshold time.Duration
	w         io.Writer

	mu   sync.Mutex
	ring [slowRingCap]SlowQuery
	n    uint64 // total recorded; ring index is n % slowRingCap
}

func (l *slowLog) record(sq SlowQuery) {
	l.mu.Lock()
	l.ring[l.n%slowRingCap] = sq
	l.n++
	w := l.w
	l.mu.Unlock()
	if w != nil {
		miscost := ""
		if sq.WorstOp != "" {
			miscost = fmt.Sprintf(" worstop=%q qerr=%.1f", sq.WorstOp, sq.WorstQErr)
		}
		if sq.Err != nil {
			fmt.Fprintf(w, "slow query: %s doc=%d total=%v results=%d cached=%v pages=%d records=%d cachehits=%d%s err=%q\n",
				sq.Expr, sq.Doc, sq.Total, sq.Results, sq.CacheHit, sq.PagesRead, sq.RecordsDecoded, sq.NodeCacheHits, miscost, sq.Err)
		} else {
			fmt.Fprintf(w, "slow query: %s doc=%d total=%v results=%d cached=%v pages=%d records=%d cachehits=%d%s\n",
				sq.Expr, sq.Doc, sq.Total, sq.Results, sq.CacheHit, sq.PagesRead, sq.RecordsDecoded, sq.NodeCacheHits, miscost)
		}
	}
}

// snapshot returns the recorded slow queries, most recent first.
func (l *slowLog) snapshot() []SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if n > slowRingCap {
		n = slowRingCap
	}
	out := make([]SlowQuery, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, l.ring[(l.n-1-i)%slowRingCap])
	}
	return out
}
