package pager

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// vfill returns a PageSize buffer of repeated b.
func vfill(b byte) []byte {
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// newTestPagers returns a memory pager and a file pager, so every MVCC
// test runs against both modes.
func newTestPagers(t *testing.T) map[string]*Pager {
	t.Helper()
	fp, err := Open(filepath.Join(t.TempDir(), "mvcc.vamana"))
	if err != nil {
		t.Fatalf("open file pager: %v", err)
	}
	t.Cleanup(func() { fp.Close() })
	mp := NewMemory()
	t.Cleanup(func() { mp.Close() })
	return map[string]*Pager{"memory": mp, "file": fp}
}

func mustAlloc(t *testing.T, p *Pager) PageID {
	t.Helper()
	id, err := p.Allocate()
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	return id
}

func mustWrite(t *testing.T, p *Pager, id PageID, img []byte) {
	t.Helper()
	if err := p.Write(id, img); err != nil {
		t.Fatalf("write page %d: %v", id, err)
	}
}

func readVia(t *testing.T, v *View, id PageID) []byte {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := v.Read(id, buf); err != nil {
		t.Fatalf("view read page %d: %v", id, err)
	}
	return buf
}

// TestViewPinsCommittedImage is the pager-level isolation property: a
// view pinned before later commits keeps reading the images current at
// its epoch, across any number of overwrites, in both pager modes.
func TestViewPinsCommittedImage(t *testing.T) {
	for mode, p := range newTestPagers(t) {
		t.Run(mode, func(t *testing.T) {
			id := mustAlloc(t, p)
			mustWrite(t, p, id, vfill('a'))
			if err := p.CommitVersion(); err != nil {
				t.Fatalf("commit a: %v", err)
			}
			va := p.PinView()
			defer va.Close()

			mustWrite(t, p, id, vfill('b'))
			if err := p.CommitVersion(); err != nil {
				t.Fatalf("commit b: %v", err)
			}
			vb := p.PinView()
			defer vb.Close()

			mustWrite(t, p, id, vfill('c'))
			if err := p.CommitVersion(); err != nil {
				t.Fatalf("commit c: %v", err)
			}

			if got := readVia(t, va, id); got[0] != 'a' {
				t.Fatalf("view a sees %q, want 'a'", got[0])
			}
			if got := readVia(t, vb, id); got[0] != 'b' {
				t.Fatalf("view b sees %q, want 'b'", got[0])
			}
			// The live read path sees the newest committed image.
			buf := make([]byte, PageSize)
			if err := p.Read(id, buf); err != nil {
				t.Fatalf("live read: %v", err)
			}
			if buf[0] != 'c' {
				t.Fatalf("live read sees %q, want 'c'", buf[0])
			}
		})
	}
}

// TestViewIgnoresUncommittedWrites: dirty writes are invisible through a
// view until CommitVersion, and visible to the regular read path
// immediately (read-your-writes).
func TestViewIgnoresUncommittedWrites(t *testing.T) {
	for mode, p := range newTestPagers(t) {
		t.Run(mode, func(t *testing.T) {
			id := mustAlloc(t, p)
			mustWrite(t, p, id, vfill('a'))
			if err := p.CommitVersion(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			v := p.PinView()
			defer v.Close()

			mustWrite(t, p, id, vfill('z')) // uncommitted
			if got := readVia(t, v, id); got[0] != 'a' {
				t.Fatalf("view sees uncommitted write: %q", got[0])
			}
			buf := make([]byte, PageSize)
			if err := p.Read(id, buf); err != nil {
				t.Fatalf("live read: %v", err)
			}
			if buf[0] != 'z' {
				t.Fatalf("live read does not see own write: %q", buf[0])
			}
		})
	}
}

// TestViewReclamation: closing the last pin at an epoch drops the
// retired versions kept for it.
func TestViewReclamation(t *testing.T) {
	for mode, p := range newTestPagers(t) {
		t.Run(mode, func(t *testing.T) {
			id := mustAlloc(t, p)
			mustWrite(t, p, id, vfill('a'))
			if err := p.CommitVersion(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			v := p.PinView()
			mustWrite(t, p, id, vfill('b'))
			if err := p.CommitVersion(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if pins, retained := len(p.pins), len(p.versions[id]); pins != 1 || retained == 0 {
				t.Fatalf("want 1 pin with retained versions, got pins=%d retained=%d", pins, retained)
			}
			v.Close()
			if pins, retained := len(p.pins), len(p.versions); pins != 0 || retained != 0 {
				t.Fatalf("want everything reclaimed after close, got pins=%d retained=%d", pins, retained)
			}
			if _, err := p.Allocate(); err != nil {
				t.Fatalf("allocate after reclaim: %v", err)
			}
			// Double close is a no-op.
			v.Close()
			if err := v.Read(id, make([]byte, PageSize)); !errors.Is(err, ErrViewClosed) {
				t.Fatalf("read after close: %v, want ErrViewClosed", err)
			}
		})
	}
}

// TestViewRejectsMutation: the read-only surface errors on writes.
func TestViewRejectsMutation(t *testing.T) {
	p := NewMemory()
	defer p.Close()
	v := p.PinView()
	defer v.Close()
	if err := v.Write(firstDataPage, vfill('x')); !errors.Is(err, ErrReadOnlyView) {
		t.Fatalf("Write: %v, want ErrReadOnlyView", err)
	}
	if _, err := v.Allocate(); !errors.Is(err, ErrReadOnlyView) {
		t.Fatalf("Allocate: %v, want ErrReadOnlyView", err)
	}
	if err := v.Free(firstDataPage); !errors.Is(err, ErrReadOnlyView) {
		t.Fatalf("Free: %v, want ErrReadOnlyView", err)
	}
}

// TestUpdateBracketRollback: writes and allocations inside a bracket
// vanish on rollback; the allocator state is restored exactly.
func TestUpdateBracketRollback(t *testing.T) {
	for mode, p := range newTestPagers(t) {
		t.Run(mode, func(t *testing.T) {
			id := mustAlloc(t, p)
			mustWrite(t, p, id, vfill('a'))
			if err := p.CommitVersion(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			before := p.NumPages()

			p.BeginUpdate()
			mustWrite(t, p, id, vfill('b'))
			extra := mustAlloc(t, p)
			mustWrite(t, p, extra, vfill('x'))
			p.RollbackUpdate()

			if got := p.NumPages(); got != before {
				t.Fatalf("npages after rollback: %d, want %d", got, before)
			}
			buf := make([]byte, PageSize)
			if err := p.Read(id, buf); err != nil {
				t.Fatalf("read after rollback: %v", err)
			}
			if buf[0] != 'a' {
				t.Fatalf("rollback did not restore page: %q", buf[0])
			}
			// The freed id range is reusable.
			if got := mustAlloc(t, p); got != extra {
				t.Fatalf("allocate after rollback: page %d, want %d", got, extra)
			}
		})
	}
}

// TestUpdateBracketCommit: a committed bracket publishes atomically via
// CommitVersion; a view pinned mid-bracket never sees its writes.
func TestUpdateBracketCommit(t *testing.T) {
	for mode, p := range newTestPagers(t) {
		t.Run(mode, func(t *testing.T) {
			id := mustAlloc(t, p)
			mustWrite(t, p, id, vfill('a'))
			if err := p.CommitVersion(); err != nil {
				t.Fatalf("commit: %v", err)
			}

			p.BeginUpdate()
			mustWrite(t, p, id, vfill('b'))
			v := p.PinView() // pinned while the bracket is open
			defer v.Close()
			if err := p.Flush(); err != nil {
				t.Fatalf("flush during bracket: %v", err)
			}
			if got := readVia(t, v, id); got[0] != 'a' {
				t.Fatalf("mid-bracket view sees in-flight write: %q", got[0])
			}
			if err := p.CommitVersion(); err != nil {
				t.Fatalf("publish: %v", err)
			}
			p.CommitUpdate()

			if got := readVia(t, v, id); got[0] != 'a' {
				t.Fatalf("pinned view moved forward: %q", got[0])
			}
			buf := make([]byte, PageSize)
			if err := p.Read(id, buf); err != nil {
				t.Fatalf("live read: %v", err)
			}
			if buf[0] != 'b' {
				t.Fatalf("commit lost the bracket's write: %q", buf[0])
			}
		})
	}
}

// TestViewSurvivesFlushAndReopen: a file pager's committed-but-pinned
// old images survive Flush (which rewrites pages in place), and the
// newest committed state is what a reopen recovers.
func TestViewSurvivesFlushAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mvcc.vamana")
	p, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	id := mustAlloc(t, p)
	mustWrite(t, p, id, vfill('a'))
	if err := p.Flush(); err != nil {
		t.Fatalf("flush a: %v", err)
	}
	v := p.PinView()
	mustWrite(t, p, id, vfill('b'))
	if err := p.Flush(); err != nil {
		t.Fatalf("flush b: %v", err)
	}
	if got := readVia(t, v, id); got[0] != 'a' {
		t.Fatalf("view after flush sees %q, want 'a'", got[0])
	}
	v.Close()
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	p2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	buf := make([]byte, PageSize)
	if err := p2.Read(id, buf); err != nil {
		t.Fatalf("read after reopen: %v", err)
	}
	if !bytes.Equal(buf, vfill('b')) {
		t.Fatalf("reopen recovered %q, want 'b'", buf[0])
	}
}
