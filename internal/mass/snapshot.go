package mass

import (
	"errors"
	"sync/atomic"

	"vamana/internal/btree"
	"vamana/internal/pager"
)

// Snapshot support: a Snapshot freezes the store at the latest published
// pager version. It hands out a read-only *Store clone whose seven index
// trees read through an epoch-pinned pager view, so every existing read
// path — scanners, statistics probes, the executor — works against it
// unchanged while the live store keeps mutating. Snapshots are
// refcounted: the creating handle holds one reference and every
// in-flight iterator holds another (via BeginRead/EndRead on the clone),
// so closing a snapshot with readers still streaming defers the release
// until the last of them finishes.

// ErrReadOnlySnapshot is returned by mutating operations on a snapshot's
// read-only store.
var ErrReadOnlySnapshot = errors.New("mass: snapshot is read-only")

// ErrDocumentBusy is returned by DropDocument while open snapshots or
// in-flight iterators could still read the document's pages.
var ErrDocumentBusy = errors.New("mass: document is busy")

// Snapshot is a refcounted frozen view of the store.
type Snapshot struct {
	parent *Store
	view   *pager.View
	st     *Store // read-only clone
	gen    uint64 // commit generation the snapshot captured
	epoch  uint64 // pinned pager version epoch

	refs   atomic.Int64
	closed atomic.Bool
}

// Snapshot publishes any unpublished state and returns a frozen view of
// it. The returned snapshot must be Closed; until then DropDocument
// refuses and retired page versions its view pins stay retained.
func (s *Store) Snapshot() (*Snapshot, error) {
	if s.ro {
		return nil, errors.New("mass: cannot snapshot a snapshot")
	}
	s.writer.Lock()
	defer s.writer.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.publishLocked(); err != nil {
		return nil, err
	}
	return s.snapshotLocked(s.commitGen.Load())
}

// snapshotLocked freezes the current published pager version as a
// snapshot capturing commit generation gen. Callers hold writer and mu
// and have already published (Snapshot) or committed (Update.CommitWith)
// the state the view should pin.
//
// The snapshot's trees load the pager's frames, so every page it shares
// with earlier versions comes already decoded, once for all of them.
func (s *Store) snapshotLocked(gen uint64) (*Snapshot, error) {
	view := s.pg.PinView()
	ro := &Store{
		pg:      s.pg,
		ro:      true,
		docs:    make(map[string]DocID, len(s.docs)),
		epochs:  make(map[DocID]uint64, len(s.epochs)),
		readers: make(map[DocID]int),
		nextDoc: s.nextDoc,
	}
	for n, d := range s.docs {
		ro.docs[n] = d
	}
	for d, e := range s.epochs {
		ro.epochs[d] = e
	}
	var err error
	load := func(root pager.PageID) *btree.Tree {
		if err != nil {
			return nil
		}
		var t *btree.Tree
		t, err = btree.Load(view, root)
		return t
	}
	ro.catalog = load(s.catalog.Root())
	ro.clustered = load(s.clustered.Root())
	ro.names = load(s.names.Root())
	ro.attrs = load(s.attrs.Root())
	ro.elems = load(s.elems.Root())
	ro.texts = load(s.texts.Root())
	ro.values = load(s.values.Root())
	if err != nil {
		view.Close()
		return nil, err
	}
	sn := &Snapshot{parent: s, view: view, st: ro, gen: gen, epoch: view.Epoch()}
	sn.refs.Store(1)
	ro.snapOwner = sn
	s.snaps[sn] = struct{}{}
	return sn, nil
}

// Store returns the snapshot's read-only store clone. All read
// operations work; mutations fail with ErrReadOnlySnapshot.
func (sn *Snapshot) Store() *Store { return sn.st }

// Gen returns the commit generation the snapshot captured: the snapshot
// equals the latest committed state exactly while the live store's
// CommitGen has not moved past it.
func (sn *Snapshot) Gen() uint64 { return sn.gen }

// Epoch returns the pinned pager version epoch.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Ref acquires an additional reference. Each Ref must be paired with an
// Unref.
func (sn *Snapshot) Ref() { sn.refs.Add(1) }

// TryRef acquires a reference only if the snapshot is still live,
// reporting success. It is the race-safe acquisition path for shared
// snapshots: a handle that just dropped to zero can no longer be
// revived.
func (sn *Snapshot) TryRef() bool {
	for {
		n := sn.refs.Load()
		if n <= 0 {
			return false
		}
		if sn.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Unref releases one reference; the last release unpins the pager view
// (reclaiming retired page versions) and unregisters from the parent,
// handing it the counters the snapshot's reads accrued.
func (sn *Snapshot) Unref() {
	if sn.refs.Add(-1) != 0 {
		return
	}
	sn.view.Close()
	p := sn.parent
	p.mu.Lock()
	sn.st.mu.Lock()
	p.retired.add(sn.st.ownMetricsLocked())
	sn.st.mu.Unlock()
	delete(p.snaps, sn)
	p.mu.Unlock()
}

// Close releases the creating reference. Idempotent. If iterators are
// still streaming from the snapshot, the underlying view stays pinned
// until the last of them finishes.
func (sn *Snapshot) Close() error {
	if sn.closed.CompareAndSwap(false, true) {
		sn.Unref()
	}
	return nil
}

// BeginRead registers an in-flight iterator over document d. On a live
// store it counts readers per document (DropDocument refuses while any
// are live); on a snapshot store it refs the owning snapshot so the view
// outlives a Close with readers still streaming.
func (s *Store) BeginRead(d DocID) {
	if s.snapOwner != nil {
		s.snapOwner.Ref()
		return
	}
	s.mu.Lock()
	s.readers[d]++
	s.mu.Unlock()
}

// EndRead unregisters an iterator previously registered with BeginRead.
func (s *Store) EndRead(d DocID) {
	if s.snapOwner != nil {
		s.snapOwner.Unref()
		return
	}
	s.mu.Lock()
	if s.readers[d] > 0 {
		s.readers[d]--
	}
	s.mu.Unlock()
}
