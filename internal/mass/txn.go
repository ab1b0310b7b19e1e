package mass

import (
	"errors"

	"vamana/internal/btree"
	"vamana/internal/flex"
	"vamana/internal/pager"
	"vamana/internal/xmldoc"
)

// Write transactions. An Update batches any number of mutations into one
// atomic publication: BeginUpdate opens a pager-level bracket that
// buffers every page write, and holds the store's writer lock for the
// transaction's whole span — one writer at a time. Readers never see the
// open transaction: they read published Views. Commit publishes the
// batch as the next View; Rollback discards the buffered pages and
// reloads the index trees at their pre-transaction roots, as if nothing
// happened.
//
// Durability is group-committed: Commit returns the published version
// epoch, and SyncCommitted(epoch) makes it durable with one journal
// flush that covers every transaction committed up to that point —
// concurrent committers coalesce on one fsync instead of paying one
// each.

// ErrTxnDone is returned when a finished Update is used again.
var ErrTxnDone = errors.New("mass: transaction already committed or rolled back")

// Update is an open write transaction. It is not safe for concurrent
// use; the goroutine running the transaction owns it.
type Update struct {
	s       *Store
	roots   map[string]pager.PageID // index tree roots at begin, for rollback
	catRoot pager.PageID
	done    bool
}

// BeginUpdate opens a write transaction. It blocks while another
// transaction, a document load or a drop holds the writer lock. The
// returned Update must be finished with Commit or Rollback.
func (s *Store) BeginUpdate() (*Update, error) {
	s.writer.Lock()
	// Publish what a failed load left unpublished: the rollback baseline
	// must be exactly the current view.
	if err := s.publishLocked(); err != nil {
		s.writer.Unlock()
		return nil, err
	}
	u := &Update{s: s, roots: make(map[string]pager.PageID, 6), catRoot: s.catalog.Root()}
	for name, slot := range s.slots() {
		u.roots[name] = (*slot).Root()
	}
	s.pg.BeginUpdate()
	return u, nil
}

// Commit publishes the transaction's mutations as the next View and
// releases the writer lock. It returns the published pager version
// epoch — pass it to SyncCommitted for group-committed durability. On
// error the transaction is rolled back.
func (u *Update) Commit() (epoch uint64, err error) {
	if u.done {
		return 0, ErrTxnDone
	}
	u.done = true
	s := u.s
	defer s.writer.Unlock()
	if err := s.publishLocked(); err != nil {
		s.rollbackLocked(u)
		return 0, err
	}
	s.pg.CommitUpdate()
	return s.pg.VersionEpoch(), nil
}

// Rollback discards every mutation made through the transaction and
// releases the writer lock. Idempotent after Commit/Rollback only in the
// sense that it reports ErrTxnDone.
func (u *Update) Rollback() error {
	if u.done {
		return ErrTxnDone
	}
	u.done = true
	defer u.s.writer.Unlock()
	return u.s.rollbackLocked(u)
}

// rollbackLocked discards the pager bracket and reloads the index trees
// at their pre-transaction roots, dropping the nodes the transaction
// edited; every committed page keeps its decoded frame. The store is
// then the current view again. Statistics epochs bumped by the aborted
// mutations stay bumped in the writer — they are monotonic staleness
// markers, and a spurious bump only costs cache refills.
func (s *Store) rollbackLocked(u *Update) error {
	s.changed = false
	s.pg.RollbackUpdate()
	for name, slot := range s.slots() {
		t, err := btree.Load(s.pg, u.roots[name])
		if err != nil {
			return err
		}
		*slot = t
	}
	cat, err := btree.Load(s.pg, u.catRoot)
	if err != nil {
		return err
	}
	s.catalog = cat
	return nil
}

// Transaction mutation methods: the store's only mutators of document
// content, bound to the open transaction (which already holds the
// writer lock).

// InsertElement inserts a new element named name as a content child of
// parent at position pos (0-based among existing content children;
// pos < 0 or past the end appends). It returns the new node's key.
func (u *Update) InsertElement(d DocID, parent flex.Key, pos int, name string) (flex.Key, error) {
	if u.done {
		return "", ErrTxnDone
	}
	return u.s.insertContent(d, parent, pos, xmldoc.Node{Kind: xmldoc.KindElement, Name: name})
}

// InsertText inserts a new text node with the given value as a content
// child of parent at position pos (see InsertElement).
func (u *Update) InsertText(d DocID, parent flex.Key, pos int, value string) (flex.Key, error) {
	if u.done {
		return "", ErrTxnDone
	}
	return u.s.insertContent(d, parent, pos, xmldoc.Node{Kind: xmldoc.KindText, Value: value})
}

// InsertAttribute adds an attribute to an element, after any existing
// attributes and before all content children.
func (u *Update) InsertAttribute(d DocID, owner flex.Key, name, value string) (flex.Key, error) {
	if u.done {
		return "", ErrTxnDone
	}
	return u.s.insertAttribute(d, owner, name, value)
}

// UpdateText replaces the value of a text or attribute node, keeping the
// value index (and therefore TC statistics) exact.
func (u *Update) UpdateText(d DocID, key flex.Key, newValue string) error {
	if u.done {
		return ErrTxnDone
	}
	return u.s.updateText(d, key, newValue)
}

// RenameElement changes an element's name, maintaining the name index.
func (u *Update) RenameElement(d DocID, key flex.Key, newName string) error {
	if u.done {
		return ErrTxnDone
	}
	return u.s.renameElement(d, key, newName)
}

// DeleteSubtree removes the node at key together with its whole subtree
// (descendants, attributes, text), cleaning every index. Deleting the
// document node is rejected; use DropDocument.
func (u *Update) DeleteSubtree(d DocID, key flex.Key) error {
	if u.done {
		return ErrTxnDone
	}
	return u.s.deleteSubtree(d, key)
}

// SyncCommitted makes every version committed at or before epoch durable
// with at most one journal flush — the group-commit path. Concurrent
// callers coalesce: whoever gets the sync lock first flushes for the
// whole group, and the rest find their epoch already covered. In-memory
// stores have no durability and return immediately.
func (s *Store) SyncCommitted(epoch uint64) error {
	if s.pg.InMemory() {
		return nil
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.syncedEpoch >= epoch {
		return nil // a concurrent committer's flush already covered us
	}
	// The flush will cover everything committed up to now, which may be
	// later than the caller's epoch — record the higher watermark.
	cover := s.pg.VersionEpoch()
	if err := s.pg.Flush(); err != nil {
		return err
	}
	if cover > s.syncedEpoch {
		s.syncedEpoch = cover
	}
	return nil
}
