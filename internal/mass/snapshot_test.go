package mass

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"vamana/internal/flex"
)

const snapTestDoc = `<lib><book id="1"><title>A</title></book><book id="2"><title>B</title></book></lib>`

func openSnapStore(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if path == "" {
		t.Cleanup(func() { s.Close() })
	}
	return s
}

func loadSnapDoc(t *testing.T, s *Store, name string) DocID {
	t.Helper()
	d, err := s.LoadDocument(name, strings.NewReader(snapTestDoc))
	if err != nil {
		t.Fatalf("load document: %v", err)
	}
	return d
}

// TestStoreSnapshotIsolation: a view pinned before a mutation keeps
// serving the pre-mutation bytes; one pinned after sees the mutation.
func TestStoreSnapshotIsolation(t *testing.T) {
	for _, mode := range []string{"memory", "file"} {
		t.Run(mode, func(t *testing.T) {
			path := ""
			if mode == "file" {
				path = filepath.Join(t.TempDir(), "snap.vamana")
			}
			s := openSnapStore(t, path)
			if path != "" {
				defer s.Close()
			}
			d := loadSnapDoc(t, s, "lib")
			before := serialize(t, s, d, flex.Root)

			sn1, err := s.Pin()
			if err != nil {
				t.Fatalf("snapshot 1: %v", err)
			}
			defer sn1.Unpin()

			// Mutate through the live store.
			err = update(s, func(u *Update) error {
				k, err := u.InsertElement(d, flex.Root.Child(flex.Ordinal(0)), -1, "appendix")
				if err != nil {
					return err
				}
				_, err = u.InsertText(d, k, -1, "new content")
				return err
			})
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			after := serialize(t, s, d, flex.Root)
			if before == after {
				t.Fatal("mutation did not change the serialization")
			}

			sn2, err := s.Pin()
			if err != nil {
				t.Fatalf("snapshot 2: %v", err)
			}
			defer sn2.Unpin()

			if got := serializeView(t, sn1, d, flex.Root); got != before {
				t.Fatalf("snapshot 1 drifted:\n got %q\nwant %q", got, before)
			}
			if got := serializeView(t, sn2, d, flex.Root); got != after {
				t.Fatalf("snapshot 2 wrong:\n got %q\nwant %q", got, after)
			}
			// Re-reads are stable.
			if got := serializeView(t, sn1, d, flex.Root); got != before {
				t.Fatalf("snapshot 1 unstable on re-read")
			}
		})
	}
}

// TestDropDocumentBusy: a pin on a view that holds the document — a
// snapshot's or a stream's — blocks DropDocument with the typed error;
// the store's own pin on its current view does not, and after release
// the drop succeeds.
func TestDropDocumentBusy(t *testing.T) {
	s := openSnapStore(t, "")
	loadSnapDoc(t, s, "lib")
	other := loadSnapDoc(t, s, "other")

	v, err := s.Pin()
	if err != nil {
		t.Fatalf("pin: %v", err)
	}
	if err := s.DropDocument("lib"); !errors.Is(err, ErrDocumentBusy) {
		t.Fatalf("drop with a pinned view: %v, want ErrDocumentBusy", err)
	}
	v.Unpin()
	if err := s.DropDocument("lib"); err != nil {
		t.Fatalf("drop after release: %v", err)
	}
	// A view pinned before a publication still holds the document.
	old, _ := s.Pin()
	if err := update(s, func(u *Update) error { return u.DeleteSubtree(other, flex.Root.Child(flex.Ordinal(0))) }); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := s.DropDocument("other"); !errors.Is(err, ErrDocumentBusy) {
		t.Fatalf("drop with a retired view pinned: %v, want ErrDocumentBusy", err)
	}
	old.Unpin()
	if err := s.DropDocument("other"); err != nil {
		t.Fatalf("drop after the retired view's release: %v", err)
	}
}

// TestSnapshotRefsDeferRelease: a view the store replaced stays readable
// while any pin remains — a snapshot closed with a reader still in
// flight keeps serving that reader its frozen state — and after the last
// unpin it can no longer be pinned.
func TestSnapshotRefsDeferRelease(t *testing.T) {
	s := openSnapStore(t, "")
	d := loadSnapDoc(t, s, "lib")
	sn, err := s.Pin()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	before := serializeView(t, sn, d, flex.Root)

	reader, err := sn.Pin() // iterator in flight
	if err != nil {
		t.Fatalf("reader pin: %v", err)
	}
	sn.Unpin() // user handle closed first
	if err := update(s, func(u *Update) error { return u.DeleteSubtree(d, flex.Root.Child(flex.Ordinal(0))) }); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got := serializeView(t, reader, d, flex.Root); got != before {
		t.Fatalf("frozen state drifted after close+mutation")
	}
	reader.Unpin()
	if _, err := reader.Pin(); !errors.Is(err, ErrReleased) {
		t.Fatalf("pin after the last unpin: %v, want ErrReleased", err)
	}
}

// TestUpdateTxnAtomicCommitAndRollback: a transaction's mutations are
// invisible to snapshots until Commit; Rollback restores the exact
// pre-transaction state.
func TestUpdateTxnAtomicCommitAndRollback(t *testing.T) {
	for _, mode := range []string{"memory", "file"} {
		t.Run(mode, func(t *testing.T) {
			path := ""
			if mode == "file" {
				path = filepath.Join(t.TempDir(), "txn.vamana")
			}
			s := openSnapStore(t, path)
			if path != "" {
				defer s.Close()
			}
			d := loadSnapDoc(t, s, "lib")
			base := serialize(t, s, d, flex.Root)
			root := flex.Root.Child(flex.Ordinal(0))

			// Rolled-back transaction: no trace remains.
			u, err := s.BeginUpdate()
			if err != nil {
				t.Fatalf("begin: %v", err)
			}
			if _, err := u.InsertElement(d, root, -1, "junk"); err != nil {
				t.Fatalf("txn insert: %v", err)
			}
			if err := u.DeleteSubtree(d, root.Child(flex.Ordinal(0))); err != nil {
				t.Fatalf("txn delete: %v", err)
			}
			if err := u.Rollback(); err != nil {
				t.Fatalf("rollback: %v", err)
			}
			if got := serialize(t, s, d, flex.Root); got != base {
				t.Fatalf("rollback left changes:\n got %q\nwant %q", got, base)
			}

			// Committed transaction: all or nothing, one published version.
			u, err = s.BeginUpdate()
			if err != nil {
				t.Fatalf("begin 2: %v", err)
			}
			k, err := u.InsertElement(d, root, -1, "chapter")
			if err != nil {
				t.Fatalf("txn insert 2: %v", err)
			}
			if _, err := u.InsertText(d, k, -1, "body"); err != nil {
				t.Fatalf("txn text: %v", err)
			}
			if err := u.RenameElement(d, k, "section"); err != nil {
				t.Fatalf("txn rename: %v", err)
			}
			epoch, err := u.Commit()
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			if err := s.SyncCommitted(epoch); err != nil {
				t.Fatalf("sync: %v", err)
			}
			got := serialize(t, s, d, flex.Root)
			if got == base || !strings.Contains(got, "<section>body</section>") {
				t.Fatalf("commit lost changes: %q", got)
			}
			// Double-finish is typed.
			if _, err := u.Commit(); !errors.Is(err, ErrTxnDone) {
				t.Fatalf("second commit: %v", err)
			}
			if err := u.Rollback(); !errors.Is(err, ErrTxnDone) {
				t.Fatalf("rollback after commit: %v", err)
			}

			// Reopen file-backed stores: the committed state survives.
			if path != "" {
				if err := s.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				s2, err := Open(Options{Path: path})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer s2.Close()
				d2, ok := s2.DocID("lib")
				if !ok {
					t.Fatal("document lost on reopen")
				}
				if got2 := serialize(t, s2, d2, flex.Root); got2 != got {
					t.Fatalf("reopen state differs:\n got %q\nwant %q", got2, got)
				}
			}
		})
	}
}

// TestDocumentsSortedOrder: the catalog listing is sorted, not map order.
func TestDocumentsSortedOrder(t *testing.T) {
	s := openSnapStore(t, "")
	for _, n := range []string{"zeta", "alpha", "mid", "beta"} {
		if _, err := s.LoadDocument(n, strings.NewReader("<r/>")); err != nil {
			t.Fatalf("load %s: %v", n, err)
		}
	}
	got := cur(s).Documents()
	want := []string{"alpha", "beta", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Documents() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Documents() = %v, want %v", got, want)
		}
	}
}

// TestGroupCommitCoalesces: a flush that covers a later epoch satisfies
// earlier waiters without another journal commit.
func TestGroupCommitCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.vamana")
	s := openSnapStore(t, path)
	defer s.Close()
	d := loadSnapDoc(t, s, "lib")
	root := flex.Root.Child(flex.Ordinal(0))

	var epochs []uint64
	for i := 0; i < 3; i++ {
		u, err := s.BeginUpdate()
		if err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		if _, err := u.InsertElement(d, root, -1, "note"); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		e, err := u.Commit()
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		epochs = append(epochs, e)
	}
	before := s.Metrics().Pager.Commits
	// One sync at the newest epoch covers all three.
	if err := s.SyncCommitted(epochs[2]); err != nil {
		t.Fatalf("sync: %v", err)
	}
	mid := s.Metrics().Pager.Commits
	if mid != before+1 {
		t.Fatalf("sync cost %d journal commits, want 1", mid-before)
	}
	for _, e := range epochs {
		if err := s.SyncCommitted(e); err != nil {
			t.Fatalf("covered sync: %v", err)
		}
	}
	if after := s.Metrics().Pager.Commits; after != mid {
		t.Fatalf("covered syncs re-flushed: %d -> %d", mid, after)
	}
}
