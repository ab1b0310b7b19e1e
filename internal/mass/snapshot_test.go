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

// TestStoreSnapshotIsolation: a snapshot taken before a mutation keeps
// serving the pre-mutation bytes; one taken after sees the mutation.
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

			sn1, err := s.Snapshot()
			if err != nil {
				t.Fatalf("snapshot 1: %v", err)
			}
			defer sn1.Close()

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

			sn2, err := s.Snapshot()
			if err != nil {
				t.Fatalf("snapshot 2: %v", err)
			}
			defer sn2.Close()

			if got := serialize(t, sn1.Store(), d, flex.Root); got != before {
				t.Fatalf("snapshot 1 drifted:\n got %q\nwant %q", got, before)
			}
			if got := serialize(t, sn2.Store(), d, flex.Root); got != after {
				t.Fatalf("snapshot 2 wrong:\n got %q\nwant %q", got, after)
			}
			// Re-reads are stable.
			if got := serialize(t, sn1.Store(), d, flex.Root); got != before {
				t.Fatalf("snapshot 1 unstable on re-read")
			}
		})
	}
}

// TestSnapshotReadOnly: every writer entry point on a snapshot store
// fails typed.
func TestSnapshotReadOnly(t *testing.T) {
	s := openSnapStore(t, "")
	d := loadSnapDoc(t, s, "lib")
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	defer sn.Close()
	ro := sn.Store()
	if err := update(ro, func(u *Update) error { _, err := u.InsertElement(d, flex.Root, -1, "x"); return err }); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("InsertElement: %v", err)
	}
	if err := update(ro, func(u *Update) error { return u.DeleteSubtree(d, flex.Root.Child(flex.Ordinal(0))) }); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("DeleteSubtree: %v", err)
	}
	if _, err := ro.LoadDocument("other", strings.NewReader("<a/>")); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("LoadDocument: %v", err)
	}
	if err := ro.DropDocument("lib"); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("DropDocument: %v", err)
	}
	if err := ro.Flush(); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("Flush: %v", err)
	}
	if _, err := ro.Snapshot(); err == nil {
		t.Fatal("snapshot of a snapshot must fail")
	}
}

// TestDropDocumentBusy: open snapshots and registered readers block
// DropDocument with the typed error; after release it succeeds.
func TestDropDocumentBusy(t *testing.T) {
	s := openSnapStore(t, "")
	d := loadSnapDoc(t, s, "lib")

	sn, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := s.DropDocument("lib"); !errors.Is(err, ErrDocumentBusy) {
		t.Fatalf("drop with open snapshot: %v, want ErrDocumentBusy", err)
	}
	sn.Close()

	s.BeginRead(d)
	if err := s.DropDocument("lib"); !errors.Is(err, ErrDocumentBusy) {
		t.Fatalf("drop with reader: %v, want ErrDocumentBusy", err)
	}
	s.EndRead(d)

	if err := s.DropDocument("lib"); err != nil {
		t.Fatalf("drop after release: %v", err)
	}
}

// TestSnapshotRefsDeferRelease: closing a snapshot with a reader still
// registered keeps the view pinned until EndRead.
func TestSnapshotRefsDeferRelease(t *testing.T) {
	s := openSnapStore(t, "")
	d := loadSnapDoc(t, s, "lib")
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	before := serialize(t, sn.Store(), d, flex.Root)

	sn.Store().BeginRead(d) // iterator in flight
	sn.Close()              // user handle closed first
	if got := len(s.snaps); got != 1 {
		t.Fatalf("snapshot released with reader in flight: open=%d", got)
	}
	// The reader can still stream the frozen state.
	if err := update(s, func(u *Update) error { return u.DeleteSubtree(d, flex.Root.Child(flex.Ordinal(0))) }); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if got := serialize(t, sn.Store(), d, flex.Root); got != before {
		t.Fatalf("frozen state drifted after close+mutation")
	}
	sn.Store().EndRead(d)
	if got := len(s.snaps); got != 0 {
		t.Fatalf("snapshot not released after last reader: open=%d", got)
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
	got := s.Documents()
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
