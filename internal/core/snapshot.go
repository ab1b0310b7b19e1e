package core

import (
	"errors"
	"sync/atomic"

	"vamana/internal/cost"
	"vamana/internal/mass"
)

// Snapshots and transactions at the engine layer. An engine Snapshot is
// a pinned mass.View with a read view of its own: a private plan cache
// and statistics memo bound to that view. The view's statistics epochs
// never move, so its cached plans never invalidate and its memoized
// probes never reset — a long-lived snapshot serves a repeated query at
// full cache-hit speed no matter how hard the live store is being
// updated underneath.

// snapshotPlanCapacity bounds each snapshot's private plan cache.
// Snapshots are expected to serve a small working set of queries; the
// engine-level cache (shared, epoch-validated) stays the big one.
const snapshotPlanCapacity = 64

// Snapshot is a pinned committed version of the engine for consistent
// reads. Queries on it (Engine.Query, Query.Run) run the engine's one
// query path over the snapshot's own read view.
type Snapshot struct {
	mv     *mass.View
	view   view
	closed atomic.Bool
}

// usageCounters back SnapshotUsage for Engine.Snapshot handles.
type usageCounters struct {
	queries, results, pages, records atomic.Uint64
}

// SnapshotUsage aggregates the work served from one snapshot.
type SnapshotUsage struct {
	Queries        uint64 // iterators finished
	Results        uint64 // result nodes delivered
	PagesRead      uint64 // pager reads charged to snapshot queries
	RecordsDecoded uint64 // clustered-index records decoded
}

// Snapshot pins the engine's current committed version. The returned
// snapshot must be Closed; queries still streaming when Close is called
// keep the view pinned until they finish. Its plan cache and statistics
// memo are private: its epochs are frozen, so entries stay valid for the
// snapshot's whole life.
func (e *Engine) Snapshot() (*Snapshot, error) {
	mv, err := e.store.Pin()
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{mv: mv, view: view{
		src:    mv,
		probes: cost.NewMemoProbes(mv),
		plans:  newPlanCache(snapshotPlanCapacity),
		usage:  &usageCounters{},
	}}
	e.bindView(&sn.view)
	return sn, nil
}

// View returns the snapshot's pinned view. Pin it for a read that may
// outlive the snapshot's Close.
func (sn *Snapshot) View() *mass.View { return sn.mv }

// Usage reports the cumulative work served from this snapshot.
func (sn *Snapshot) Usage() SnapshotUsage {
	u := sn.view.usage
	return SnapshotUsage{
		Queries:        u.queries.Load(),
		Results:        u.results.Load(),
		PagesRead:      u.pages.Load(),
		RecordsDecoded: u.records.Load(),
	}
}

// Close drops the snapshot's pin. Idempotent; safe while iterators
// opened from it are still streaming (each holds a pin of its own until
// it finishes).
func (sn *Snapshot) Close() error {
	if sn.closed.CompareAndSwap(false, true) {
		sn.mv.Unpin()
	}
	return nil
}

// Update runs fn inside a write transaction: all mutations made through
// the passed mass.Update become visible atomically when fn returns nil,
// and are rolled back without trace when it returns an error (or
// panics). On success the commit has published the next view, it is
// made durable through the group-commit path, and the published version
// epoch is returned.
func (e *Engine) Update(fn func(*mass.Update) error) (epoch uint64, err error) {
	u, err := e.store.BeginUpdate()
	if err != nil {
		return 0, err
	}
	committed := false
	defer func() {
		if !committed {
			// fn panicked or errored: discard the batch. ErrTxnDone means
			// fn finished the transaction itself — nothing left to undo.
			if rerr := u.Rollback(); rerr != nil && !errors.Is(rerr, mass.ErrTxnDone) && err == nil {
				err = rerr
			}
		}
	}()
	if err := fn(u); err != nil {
		return 0, err
	}
	if epoch, err = u.Commit(); err != nil {
		return 0, err
	}
	committed = true
	return epoch, e.store.SyncCommitted(epoch)
}
