package core

import (
	"context"
	"fmt"

	"vamana/internal/obs"
)

// RequestTrace carries a serving-layer request's identity into the
// engine and the engine's record of the run back out. The serving layer
// attaches one to the query context (WithRequestTrace); a run under it
// stamps the request ID and tenant into its record and, when the run was
// slow or traced, hands the record back via Captured instead of writing
// the ring — the serving layer grafts its own spans (queue wait, TTFB,
// stream drain) above the engine's root, adds its outcome, and writes
// the combined record (Engine.RecordTrace), so the ring holds one entry
// per request, not two.
type RequestTrace struct {
	// ID is the wire request ID (X-Vamana-Request), Tenant the tenant
	// the request billed to.
	ID     string
	Tenant string
	// Captured receives the engine's record at query finish when the
	// run was slow or traced; nil otherwise. Written by the finish hook,
	// read by the request goroutine after the iterator is closed — the
	// exactly-once finish contract orders the two.
	Captured *obs.QueryTrace
}

// requestTraceKey keys the context attachment of a *RequestTrace.
type requestTraceKey struct{}

// WithRequestTrace returns a context carrying rt; engine runs under it
// join their records to the request (see RequestTrace).
func WithRequestTrace(ctx context.Context, rt *RequestTrace) context.Context {
	return context.WithValue(ctx, requestTraceKey{}, rt)
}

// requestTraceFrom extracts the request attachment, nil when absent.
// Only consulted on runs that may write a record (traced, or with a
// slow-query threshold set), so the plain hot path never pays the
// context-value walk.
func requestTraceFrom(ctx context.Context) *RequestTrace {
	rt, _ := ctx.Value(requestTraceKey{}).(*RequestTrace)
	return rt
}

// traceContext carries one in-flight query's record from the query path
// to its finish hook: traced runs (1-in-TraceEvery samples, or every run
// when the flight recorder is on), runs under a serving request when a
// slow threshold is set, and compile misses, whose compile time and
// cache-miss status the record would otherwise lose. Unsampled cache-hit
// queries carry the bare Query and allocate nothing.
type traceContext struct {
	// QueryTrace is the record the finish hook completes and publishes.
	obs.QueryTrace
	// sampled marks a 1-in-N trace (delivered to TraceSink); traced a
	// run that recorded executor spans, which queryFinished assembles
	// into Root.
	sampled, traced bool
	// q is the executed query, kept so span assembly can walk its plan.
	q *Query
	// req, when non-nil, receives the record instead of the ring.
	req *RequestTrace
}

// appendSlowLine is the slow-query log's serialisation of a record.
func appendSlowLine(dst []byte, t *obs.QueryTrace) []byte {
	dst = fmt.Appendf(dst, "slow query: %s doc=%s total=%v results=%d cached=%v pages=%d records=%d cachehits=%d",
		t.Expr, t.Doc, t.Total, t.Results, t.CacheHit, t.PagesRead, t.RecordsDecoded, t.NodeCacheHits)
	if t.WorstOp != "" {
		dst = fmt.Appendf(dst, " worstop=%q qerr=%.1f", t.WorstOp, t.WorstQErr)
	}
	if t.Err != "" {
		dst = fmt.Appendf(dst, " err=%q", t.Err)
	}
	return append(dst, '\n')
}
