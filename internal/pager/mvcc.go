package pager

import (
	"errors"
	"sort"
	"sync/atomic"
)

// Multi-version page store: the machinery under snapshot reads.
//
// The pager distinguishes three layers of page state:
//
//   - dirty:     writes buffered since the last version commit. Regular
//     reads see them (read-your-writes); snapshot reads never do. This
//     is also the rollback unit: an aborted store transaction discards
//     the dirty overlay wholesale.
//   - committed: the current committed image of every page — mem[] for
//     memory pagers, the pending map + the file for file pagers (pending
//     holds committed-but-not-yet-durable images; Flush journals them and
//     moves the ones read since into the clean cache, which spares
//     re-reading durable images from the file).
//   - versions:  retired committed images kept only while a live
//     snapshot can still see them. stash-on-overwrite: when a version
//     commit replaces a page's committed image and at least one snapshot
//     is pinned, the old image is appended to the page's version list,
//     tagged with the epoch through which it was current.
//
// CommitVersion is the snapshot visibility point: it applies the dirty
// overlay to the committed layer and bumps the version epoch. PinView
// pins the current epoch and returns a read-only View that resolves
// every page to its image as of that epoch. When the last pin at or
// below a version's tag closes, the version is reclaimed.
//
// Durability is unchanged: Flush still commits through the double-write
// journal (see commit.go); version commits are purely in-memory.

// ErrReadOnlyView is returned by mutating operations on a snapshot View.
var ErrReadOnlyView = errors.New("pager: view is read-only")

// ErrViewClosed is returned when reading through a closed snapshot View.
var ErrViewClosed = errors.New("pager: view closed")

// pageVersion is one retired committed page image. f is the frame that
// was current for every epoch <= asOf; nil records that the page had no
// readable committed image when it was first overwritten (a page
// allocated and written inside the commit that stashed it, or one whose
// prior on-disk image failed verification).
type pageVersion struct {
	asOf uint64
	f    *Frame
}

// txnMark captures the allocator state at BeginUpdate so RollbackUpdate
// can restore it: pages allocated by the aborted transaction are
// un-allocated and free-list pops are undone.
type txnMark struct {
	npages    PageID
	free      []PageID
	metaDirty bool
}

// VersionEpoch returns the current version epoch — the number of
// version commits since open. Snapshots pin the epoch current at pin
// time.
func (p *Pager) VersionEpoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vEpoch
}

// CommitVersion publishes all buffered writes as the next committed
// version: the dirty overlay is applied to the committed layer (with
// prior images stashed for any live snapshot) and the version epoch is
// bumped. A no-op when nothing was written. Durability is separate —
// see Flush.
func (p *Pager) CommitVersion() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	return p.commitVersionLocked()
}

// commitVersionLocked is CommitVersion with mu held.
func (p *Pager) commitVersionLocked() error {
	if len(p.dirty) == 0 {
		return nil
	}
	stash := len(p.pins) > 0
	for id, f := range p.dirty {
		if stash && id < p.vPages {
			// Pages allocated fresh since the last version commit belong
			// to no pinned version: nothing to retire.
			p.stashLocked(id)
		}
		if p.backend == nil {
			// Allocate grows mem eagerly, so id is always in range.
			p.mem[id] = f
		} else {
			// An image replacing one that was read stays cached once
			// durable, as one read while pending does.
			if old := p.pending[id]; (old != nil && old.ref) || p.clean.byID[id] != nil {
				f.ref = true
			}
			p.pending[id] = f
			p.clean.drop(id)
		}
	}
	p.dirty = emptied(p.dirty)
	p.vEpoch++
	p.vPages = p.npages
	p.m.VersionCommits++
	return nil
}

// stashLocked retires page id's current committed image into its version
// list, tagged with the epoch through which it was current. Called
// before the commit loop overwrites the committed layer.
func (p *Pager) stashLocked(id PageID) {
	var old *Frame
	switch {
	case p.backend == nil:
		if int(id) < len(p.mem) {
			// Move, not copy: mem[id] is about to be replaced, and no
			// holder of the old frame ever modifies it. A page never
			// written has a nil frame, which records "no committed image".
			old = p.mem[id]
		}
	default:
		if f, ok := p.pending[id]; ok {
			// Same move semantics: the pending entry is replaced next.
			old = f
		} else if old = p.clean.get(id); old == nil {
			// A failed read means the page never had a committed image
			// (first write of a fresh page) or is damaged; a nil version
			// makes a snapshot read of it fail loudly instead of seeing
			// the newer image.
			img, err := p.readDisk(id, make([]byte, DiskPageSize))
			if err == nil {
				old = NewFrame(img)
			} else if errors.Is(err, ErrChecksum) {
				p.m.ChecksumFails++
			}
		}
	}
	p.versions[id] = append(p.versions[id], pageVersion{asOf: p.vEpoch, f: old})
	p.m.PagesStashed++
}

// PinView pins the current version epoch and returns a read-only View
// of it. Every Read through the view resolves pages to their committed
// image as of the pinned epoch, whatever the writer does afterwards.
// Close the view to release the pin; retired page versions are
// reclaimed when no pin can reach them.
func (p *Pager) PinView() *View {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pins[p.vEpoch]++
	return &View{p: p, epoch: p.vEpoch}
}

// unpin releases one pin at epoch and reclaims unreachable versions.
func (p *Pager) unpin(epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := p.pins[epoch]; n > 1 {
		p.pins[epoch] = n - 1
		return
	}
	delete(p.pins, epoch)
	p.reclaimLocked()
}

// reclaimLocked drops retired versions no live pin can reach: with no
// pins everything goes; otherwise versions tagged strictly before the
// oldest pinned epoch (a reader at epoch E resolves the first version
// tagged >= E, so anything tagged < min(pins) is dead).
func (p *Pager) reclaimLocked() {
	if len(p.pins) == 0 {
		p.versions = emptied(p.versions)
		return
	}
	min := uint64(1<<64 - 1)
	for e := range p.pins {
		if e < min {
			min = e
		}
	}
	for id, vs := range p.versions {
		i := sort.Search(len(vs), func(i int) bool { return vs[i].asOf >= min })
		if i == 0 {
			continue
		}
		if i == len(vs) {
			delete(p.versions, id)
			continue
		}
		p.versions[id] = vs[i:]
	}
}

// smallMap is the size past which an emptied map is made anew: a Go map
// keeps its grown bucket arrays through delete and clear, so a map that
// one large load or commit grew would hold that memory for the pager's
// life.
const smallMap = 64

// emptied returns m with no entries: cleared in place while small, a
// fresh map once it has grown past smallMap.
func emptied[K comparable, V any](m map[K]V) map[K]V {
	if len(m) > smallMap {
		return make(map[K]V)
	}
	clear(m)
	return m
}

// View is a read-only handle onto the pager pinned at one version
// epoch. It satisfies the same page-access surface as the Pager itself
// (so index trees can run over either), with every mutation rejected.
// Views are safe for concurrent use.
type View struct {
	p      *Pager
	epoch  uint64
	closed atomic.Bool
}

// Epoch returns the pinned version epoch.
func (v *View) Epoch() uint64 { return v.epoch }

// Read copies page id's committed image as of the pinned epoch into buf.
func (v *View) Read(id PageID, buf []byte) error {
	f, err := v.ReadFrame(id)
	return copyImage(buf, f, err)
}

// ReadFrame returns page id's frame as of the pinned epoch; see
// Pager.ReadFrame.
func (v *View) ReadFrame(id PageID) (*Frame, error) {
	if v.closed.Load() {
		return nil, ErrViewClosed
	}
	return v.p.frame(id, v.epoch, false, true)
}

// Resident returns page id's frame as of the pinned epoch when it is in
// memory; see Pager.Resident.
func (v *View) Resident(id PageID) (*Frame, error) {
	if v.closed.Load() {
		return nil, ErrViewClosed
	}
	return v.p.frame(id, v.epoch, false, false)
}

// Write rejects mutation through a view.
func (v *View) Write(PageID, []byte) error { return ErrReadOnlyView }

// WriteFrame rejects mutation through a view.
func (v *View) WriteFrame(PageID, *Frame) error { return ErrReadOnlyView }

// Allocate rejects allocation through a view.
func (v *View) Allocate() (PageID, error) { return InvalidPage, ErrReadOnlyView }

// Free rejects page release through a view.
func (v *View) Free(PageID) error { return ErrReadOnlyView }

// InMemory reports whether the underlying pager is memory-backed.
func (v *View) InMemory() bool { return v.p.InMemory() }

// Close releases the pin, allowing retired page versions the view kept
// alive to be reclaimed. Idempotent; reads after Close fail with
// ErrViewClosed.
func (v *View) Close() {
	if v.closed.CompareAndSwap(false, true) {
		v.p.unpin(v.epoch)
	}
}

// BeginUpdate opens a pager-level transaction bracket: writes buffer in
// the dirty overlay (even on memory pagers, whose writes otherwise apply
// in place) and the allocator state is checkpointed, so RollbackUpdate
// can discard the whole batch. The caller serializes brackets (the MASS
// store holds its writer lock across one) and must close with
// CommitUpdate or RollbackUpdate. Flush during a bracket journals only
// previously committed state, never the in-flight overlay.
func (p *Pager) BeginUpdate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inTxn = true
	p.txnMark = txnMark{
		npages:    p.npages,
		free:      append([]PageID(nil), p.free...),
		metaDirty: p.metaDirty,
	}
}

// CommitUpdate closes a transaction bracket, keeping its writes. The
// caller publishes them with CommitVersion first (or leaves them dirty
// for a later commit).
func (p *Pager) CommitUpdate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inTxn = false
	p.txnMark = txnMark{}
}

// RollbackUpdate closes a transaction bracket, discarding every write
// buffered since BeginUpdate and restoring the allocator (page count,
// free list) to its checkpoint. Committed state is untouched.
func (p *Pager) RollbackUpdate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.inTxn {
		return
	}
	p.dirty = emptied(p.dirty)
	if p.backend == nil && int(p.txnMark.npages) <= len(p.mem) {
		p.mem = p.mem[:p.txnMark.npages]
	}
	p.npages = p.txnMark.npages
	p.free = p.txnMark.free
	p.metaDirty = p.txnMark.metaDirty
	p.inTxn = false
	p.txnMark = txnMark{}
}
