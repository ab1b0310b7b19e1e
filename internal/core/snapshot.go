package core

import (
	"errors"
	"sync/atomic"

	"vamana/internal/cost"
	"vamana/internal/mass"
)

// Snapshots and transactions at the engine layer. An engine Snapshot
// wraps a mass.Snapshot (a frozen, refcounted store view) in a read view
// of its own — for Engine.Snapshot handles, a private plan cache and
// statistics memo bound to the snapshot's store. The snapshot's
// statistics epochs never move, so its cached plans never invalidate and
// its memoized probes never reset — a long-lived snapshot serves a
// repeated query at full cache-hit speed no matter how hard the live
// store is being updated underneath.

// snapshotPlanCapacity bounds each snapshot's private plan cache.
// Snapshots are expected to serve a small working set of queries; the
// engine-level cache (shared, epoch-validated) stays the big one.
const snapshotPlanCapacity = 64

// Snapshot is a frozen, refcounted view of the engine for consistent
// reads. Queries on it (Engine.Query, Query.Run) run the engine's one
// query path over the snapshot's own read view; mutations are rejected
// by the underlying read-only store.
type Snapshot struct {
	ms   *mass.Snapshot
	view view
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

// Snapshot freezes the engine's current committed state. The returned
// snapshot must be Closed; queries still streaming when Close is called
// keep the underlying view pinned until they finish. Its plan cache and
// statistics memo are private: its epochs are frozen, so entries stay
// valid for the snapshot's whole life.
func (e *Engine) Snapshot() (*Snapshot, error) {
	ms, err := e.live.store.Snapshot()
	if err != nil {
		return nil, err
	}
	st := ms.Store()
	return e.newSnapshot(ms, view{
		store:  st,
		probes: cost.NewMemoProbes(st),
		plans:  newPlanCache(snapshotPlanCapacity),
		usage:  &usageCounters{},
	}), nil
}

// wrapShared wraps a mass.Snapshot for the auto-snapshot serving path:
// instead of private (frozen-forever) caches the snapshot reuses the
// engine's epoch-validated plan cache and statistics memo. Because the
// shared snapshot is always the newest committed state, its frozen
// epochs match the live store's, so engine-cache entries hit across
// commits for every document the commit did not touch — a writer
// updating one document does not evict every other document's plans.
// Entries stay epoch-validated, so even a snapshot gone stale compiles
// correct (merely conservative) plans.
func (e *Engine) wrapShared(ms *mass.Snapshot) *Snapshot {
	return e.newSnapshot(ms, view{store: ms.Store(), probes: e.live.probes, plans: e.live.plans})
}

func (e *Engine) newSnapshot(ms *mass.Snapshot, v view) *Snapshot {
	sn := &Snapshot{ms: ms, view: v}
	e.bindView(&sn.view)
	return sn
}

// Store returns the snapshot's read-only store view.
func (sn *Snapshot) Store() *mass.Store { return sn.view.store }

// Gen reports the commit generation the snapshot captured; the snapshot
// is the latest committed state exactly while the live store's CommitGen
// has not moved past it.
func (sn *Snapshot) Gen() uint64 { return sn.ms.Gen() }

// Epoch reports the pinned pager version epoch.
func (sn *Snapshot) Epoch() uint64 { return sn.ms.Epoch() }

// TryRef acquires an additional reference if the snapshot is still live
// (see mass.Snapshot.TryRef). Pair with Unref.
func (sn *Snapshot) TryRef() bool { return sn.ms.TryRef() }

// Unref releases a reference taken with TryRef.
func (sn *Snapshot) Unref() { sn.ms.Unref() }

// Usage reports the cumulative work served from this snapshot (zero for
// shared auto-snapshots, which keep no usage counters).
func (sn *Snapshot) Usage() SnapshotUsage {
	u := sn.view.usage
	if u == nil {
		return SnapshotUsage{}
	}
	return SnapshotUsage{
		Queries:        u.queries.Load(),
		Results:        u.results.Load(),
		PagesRead:      u.pages.Load(),
		RecordsDecoded: u.records.Load(),
	}
}

// Close releases the snapshot's creating reference. Idempotent; safe
// while iterators opened from it are still streaming (the view stays
// pinned until the last one finishes).
func (sn *Snapshot) Close() error { return sn.ms.Close() }

// Update runs fn inside a write transaction: all mutations made through
// the passed mass.Update become visible atomically when fn returns nil,
// and are rolled back without trace when it returns an error (or
// panics). On success the commit is made durable through the
// group-commit path and the published version epoch is returned.
//
// When install is non-nil the just-committed state is frozen as a shared
// snapshot (engine caches, see wrapShared) and handed to install
// atomically with the commit — before the store's commit generation
// advances — so the auto-snapshot read path never sees a window where
// its snapshot is stale but no replacement exists. install runs with the
// store's writer lock held: it must only swap the snapshot in and
// release the previous one.
func (e *Engine) Update(fn func(*mass.Update) error, install func(*Snapshot)) (epoch uint64, err error) {
	u, err := e.live.store.BeginUpdate()
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
	if install == nil {
		epoch, err = u.Commit()
	} else {
		epoch, err = u.CommitWith(func(ms *mass.Snapshot) {
			install(e.wrapShared(ms))
		})
	}
	if err != nil {
		return 0, err
	}
	committed = true
	if err := e.live.store.SyncCommitted(epoch); err != nil {
		return epoch, err
	}
	return epoch, nil
}
