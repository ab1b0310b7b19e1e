package vamana

import (
	"errors"
	"sync/atomic"

	"vamana/internal/core"
	"vamana/internal/mass"
)

// Snapshots and transactions.
//
// Every read runs on one committed version of the database, pinned for
// the read's span: a query and its whole result stream, or one direct
// Document read. A live handle's read pins the latest committed version
// when it starts, so a long result stream never observes a concurrent
// writer mid-flight and no read observes an open transaction's buffered
// writes. A Snapshot is a cheap handle that holds one version pinned
// across reads: every read through it — queries, node fetches, XML
// export — observes exactly that state, however many writers commit
// underneath. DB.Update runs a function inside a write transaction whose
// mutations become visible atomically on commit, made durable with one
// group-committed journal flush shared by concurrent committers.

var (
	// ErrDocumentBusy reports a Drop refused because open snapshots or
	// in-flight result streams could still read the document.
	ErrDocumentBusy = mass.ErrDocumentBusy
	// ErrReadOnlySnapshot reports a Txn mutation given a snapshot-bound
	// document handle.
	ErrReadOnlySnapshot = errors.New("vamana: snapshot is read-only")
	// ErrTxnDone reports a use of a transaction that already committed or
	// rolled back.
	ErrTxnDone = mass.ErrTxnDone
	// ErrSnapshotClosed reports a read started through a closed
	// Snapshot's document handle.
	ErrSnapshotClosed = errors.New("vamana: snapshot is closed")
)

// SnapshotUsage aggregates the work served from one snapshot: queries
// finished, result nodes delivered, and the storage they consumed.
type SnapshotUsage = core.SnapshotUsage

// Snapshot is a consistent read-only view of the database at one
// committed version. It is safe for concurrent use; reads through it
// cost the same as reads on the DB. Close releases it — result streams
// still draining keep the version pinned until they finish, so Close
// never invalidates an in-flight iterator.
type Snapshot struct {
	db     *DB
	cs     *core.Snapshot
	closed atomic.Bool
}

// Snapshot pins the latest committed state and returns a handle reading
// exclusively from it. The snapshot must be Closed; until then, pages it
// can still see are retained (copy-on-write) and Drop of any document
// fails with ErrDocumentBusy.
func (db *DB) Snapshot() (*Snapshot, error) {
	cs, err := db.engine.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{db: db, cs: cs}, nil
}

// Epoch reports the committed version the snapshot pinned. Epochs
// increase with every commit, so two snapshots compare by recency.
func (sn *Snapshot) Epoch() uint64 { return sn.cs.View().Version() }

// Usage reports the cumulative work served from this snapshot.
func (sn *Snapshot) Usage() SnapshotUsage { return sn.cs.Usage() }

// Documents lists the document names in the snapshot, sorted.
func (sn *Snapshot) Documents() []string { return sn.cs.View().Documents() }

// Document returns a handle for name bound to this snapshot: all reads
// through it — DB.Query, Query.Run, Explain and the Document methods —
// observe the pinned version. DB.Query compiles against the snapshot's
// frozen statistics and keeps those plans cached for the snapshot's
// whole life, however hard the live store is updated underneath. The
// error for an unknown name satisfies errors.Is(err, ErrNoSuchDocument).
func (sn *Snapshot) Document(name string) (*Document, error) {
	if sn.closed.Load() {
		return nil, ErrSnapshotClosed
	}
	id, ok := sn.cs.View().DocID(name)
	if !ok {
		return nil, wrapNoDoc(mass.ErrNoDoc, name)
	}
	return &Document{db: sn.db, id: id, name: name, snap: sn}, nil
}

// Close releases the snapshot. Idempotent; safe while result streams
// opened from it are still draining (the pinned version is released when
// the last of them finishes).
func (sn *Snapshot) Close() error {
	if sn.closed.CompareAndSwap(false, true) {
		return sn.cs.Close()
	}
	return nil
}

// Txn is an open write transaction, passed to the function run by
// DB.Update — the only way to mutate a document. All mutations made
// through it become visible atomically when the function returns nil;
// none survive when it returns an error. Its mutation methods reject a
// snapshot-bound document handle with ErrReadOnlySnapshot.
// A Txn is bound to its DB.Update call: it must not be used after the
// function returns, and it is not safe for concurrent use.
type Txn struct {
	db *DB
	u  *mass.Update
}

// Update runs fn inside a write transaction. Mutations made through the
// Txn are buffered (invisible to queries and snapshots) until fn returns
// nil, then committed as one atomic version and made durable with one
// group-committed journal flush — concurrent Update calls coalesce their
// syncs instead of paying one fsync each. When fn returns an error (or
// panics) every buffered mutation is rolled back and the store is
// exactly as before.
//
// Transactions serialize: one writer runs at a time, while readers —
// queries, snapshots, result streams — proceed unblocked throughout,
// on the versions committed before. The commit publishes the new
// version atomically: every read that starts after it sees it.
func (db *DB) Update(fn func(*Txn) error) error {
	_, err := db.engine.Update(func(u *mass.Update) error {
		return fn(&Txn{db: db, u: u})
	})
	return err
}

// Document returns the handle for a loaded document, for use with the
// transaction's mutation methods.
func (t *Txn) Document(name string) (*Document, error) { return t.db.Document(name) }

// InsertElement inserts a new element named name as a content child of
// the node at parentKey in d, at position pos among existing content
// children (negative or past-the-end appends). It returns the new
// node's FLEX key. Indexes and statistics update within the
// transaction; other readers see nothing until commit.
func (t *Txn) InsertElement(d *Document, parentKey string, pos int, name string) (string, error) {
	if d.snap != nil {
		return "", ErrReadOnlySnapshot
	}
	k, err := t.u.InsertElement(d.id, flexKey(parentKey), pos, name)
	return string(k), err
}

// InsertText inserts a new text node under parentKey (see InsertElement).
func (t *Txn) InsertText(d *Document, parentKey string, pos int, value string) (string, error) {
	if d.snap != nil {
		return "", ErrReadOnlySnapshot
	}
	k, err := t.u.InsertText(d.id, flexKey(parentKey), pos, value)
	return string(k), err
}

// InsertAttribute adds an attribute to the element at ownerKey in d.
func (t *Txn) InsertAttribute(d *Document, ownerKey, name, value string) (string, error) {
	if d.snap != nil {
		return "", ErrReadOnlySnapshot
	}
	k, err := t.u.InsertAttribute(d.id, flexKey(ownerKey), name, value)
	return string(k), err
}

// UpdateText replaces the value of a text or attribute node, keeping the
// value index (TC statistics) exact.
func (t *Txn) UpdateText(d *Document, key, newValue string) error {
	if d.snap != nil {
		return ErrReadOnlySnapshot
	}
	return t.u.UpdateText(d.id, flexKey(key), newValue)
}

// RenameElement changes an element's name, maintaining the name index.
func (t *Txn) RenameElement(d *Document, key, newName string) error {
	if d.snap != nil {
		return ErrReadOnlySnapshot
	}
	return t.u.RenameElement(d.id, flexKey(key), newName)
}

// DeleteSubtree removes the node at key in d and its entire subtree.
func (t *Txn) DeleteSubtree(d *Document, key string) error {
	if d.snap != nil {
		return ErrReadOnlySnapshot
	}
	return t.u.DeleteSubtree(d.id, flexKey(key))
}
