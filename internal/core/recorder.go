package core

// The engine's one record store: a bounded ring of the most recent
// obs.QueryTrace records — slow queries, traced queries (the flight
// recorder: every query when Options.FlightRecorderSize is set, so a
// query that turns out slow or budget-tripped already has its span
// tree), and the serving layer's one record per request. The slow,
// traced and request lists are filters over one snapshot, not rings of
// their own.

import (
	"sync"

	"vamana/internal/obs"
)

// defaultRingSize is the ring's capacity when Options.FlightRecorderSize
// does not set one.
const defaultRingSize = 256

// traceRing is a mutex-guarded ring of records. Writes are one pointer
// store; snapshots copy the pointers, never the records, so a reader
// holds the lock for microseconds regardless of span fan-out.
type traceRing struct {
	mu   sync.Mutex
	ring []*obs.QueryTrace
	n    uint64 // total recorded; ring index is n % len(ring)
}

func newTraceRing(size int) *traceRing {
	return &traceRing{ring: make([]*obs.QueryTrace, size)}
}

func (r *traceRing) add(t *obs.QueryTrace) {
	r.mu.Lock()
	r.ring[r.n%uint64(len(r.ring))] = t
	r.n++
	r.mu.Unlock()
}

// snapshot returns the recorded records, most recent first. Records are
// immutable once recorded; callers may hold them freely.
func (r *traceRing) snapshot() []*obs.QueryTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(r.n, uint64(len(r.ring)))
	out := make([]*obs.QueryTrace, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.ring[(r.n-1-i)%uint64(len(r.ring))])
	}
	return out
}

// RecordTrace appends an externally assembled record to the ring,
// assigning it an ID when it has none. The serving layer writes its one
// record per request through it: serve-layer spans grafted above a
// captured engine record (see RequestTrace), or a request-only record
// when the engine captured none.
func (e *Engine) RecordTrace(t *obs.QueryTrace) {
	if t.ID == 0 {
		t.ID = e.traceSeq.Add(1)
	}
	e.ring.add(t)
}

// Traces returns every record in the ring, most recent first.
func (e *Engine) Traces() []*obs.QueryTrace { return e.ring.snapshot() }

// SlowQueries returns the ring's records at or above
// Options.SlowQueryThreshold, most recent first; none when no threshold
// is set.
func (e *Engine) SlowQueries() []*obs.QueryTrace {
	return obs.Filter(e.ring.snapshot(), func(t *obs.QueryTrace) bool { return e.slowAt > 0 && t.Total >= e.slowAt })
}
