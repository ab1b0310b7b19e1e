package pager

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vamana/internal/pager/faultfs"
)

func fill(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestMemoryRoundTrip(t *testing.T) {
	p := NewMemory()
	defer p.Close()
	id, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id == InvalidPage {
		t.Fatal("allocated invalid page id")
	}
	want := fill(0xAB)
	if err := p.Write(id, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := p.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page contents mismatch")
	}
}

func TestAllocateDistinct(t *testing.T) {
	p := NewMemory()
	defer p.Close()
	seen := map[PageID]bool{}
	for i := 0; i < 100; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("page %d allocated twice", id)
		}
		seen[id] = true
	}
}

func TestFreeListReuse(t *testing.T) {
	p := NewMemory()
	defer p.Close()
	id, _ := p.Allocate()
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	id2, _ := p.Allocate()
	if id2 != id {
		t.Fatalf("freed page not reused: got %d, want %d", id2, id)
	}
}

func TestPageRangeErrors(t *testing.T) {
	p := NewMemory()
	defer p.Close()
	buf := make([]byte, PageSize)
	if err := p.Read(99, buf); err != ErrPageRange {
		t.Fatalf("Read out of range: %v", err)
	}
	if err := p.Write(99, buf); err != ErrPageRange {
		t.Fatalf("Write out of range: %v", err)
	}
	if err := p.Free(0); err != ErrPageRange {
		t.Fatalf("Free meta page 0: %v", err)
	}
	if err := p.Free(1); err != ErrPageRange {
		t.Fatalf("Free meta page 1: %v", err)
	}
}

func TestBadBufferSize(t *testing.T) {
	p := NewMemory()
	defer p.Close()
	id, _ := p.Allocate()
	if err := p.Write(id, make([]byte, 10)); err == nil {
		t.Fatal("short write buffer accepted")
	}
	if err := p.Read(id, make([]byte, 10)); err == nil {
		t.Fatal("short read buffer accepted")
	}
}

func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.vam")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := p.Write(id, fill(byte('A'+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Free one page so the free list round-trips too.
	if err := p.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	buf := make([]byte, PageSize)
	for i, id := range ids {
		if i == 2 {
			continue
		}
		if err := p2.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte('A'+i) {
			t.Fatalf("page %d content lost: %q", id, buf[0])
		}
	}
	// The freed page must be reused before any new page.
	id, err := p2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[2] {
		t.Fatalf("free list not restored: got %d, want %d", id, ids[2])
	}
}

func TestClosedErrors(t *testing.T) {
	p := NewMemory()
	p.Close()
	if _, err := p.Allocate(); err != ErrClosed {
		t.Fatalf("Allocate after close: %v", err)
	}
	if err := p.Read(0, make([]byte, PageSize)); err != ErrClosed {
		t.Fatalf("Read after close: %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.vam")
	junk := make([]byte, 2*DiskPageSize)
	copy(junk, []byte("NOTAPAGEFILE"))
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if !errors.Is(err, ErrTornMeta) {
		t.Fatalf("Open of a non-pager file: got %v, want ErrTornMeta", err)
	}
}

func TestUserMetaPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.vam")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var m [userMetaSize]byte
	copy(m[:], []byte("catalog-root=42"))
	p.SetUserMeta(m)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.UserMeta(); got != m {
		t.Fatalf("user meta lost: %q", got[:])
	}
}

// TestSharedImagesNeverChange pins the zero-copy contract: ReadFrame
// hands out the pager's own frame, WriteFrame keeps the caller's image,
// Write copies, and no later write changes an image a ReadFrame caller
// holds — on memory and file pagers, with and without a pinned view.
func TestSharedImagesNeverChange(t *testing.T) {
	for _, mode := range []string{"memory", "memory-pinned", "file"} {
		t.Run(mode, func(t *testing.T) {
			p := NewMemory()
			if mode == "file" {
				var err error
				if p, err = Open(filepath.Join(t.TempDir(), "shared.vam")); err != nil {
					t.Fatal(err)
				}
			}
			defer p.Close()
			id, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			shared := func() ([]byte, error) {
				f, err := p.ReadFrame(id)
				if err != nil {
					return nil, err
				}
				return f.Data(), nil
			}
			if mode == "memory" {
				img, err := shared()
				if err != nil || !bytes.Equal(img, fill(0)) {
					t.Fatalf("unwritten page reads %v, want zeros", err)
				}
			}
			if mode == "memory-pinned" {
				v := p.PinView()
				defer v.Close()
			}
			buf := fill(1)
			if err := p.Write(id, buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, fill(2)) // Write copied: reusing buf changes nothing
			held, err := shared()
			if err != nil || !bytes.Equal(held, fill(1)) {
				t.Fatalf("ReadFrame after Write: %v", err)
			}
			own := fill(3)
			if err := p.WriteFrame(id, NewFrame(own)); err != nil {
				t.Fatal(err)
			}
			got, err := shared()
			if err != nil || &got[0] != &own[0] {
				t.Fatalf("ReadFrame after WriteFrame is not the written image (%v)", err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := p.Write(id, fill(4)); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(held, fill(1)) || !bytes.Equal(own, fill(3)) {
				t.Fatal("a later write changed an image a reader holds")
			}
			if got, err := shared(); err != nil || !bytes.Equal(got, fill(4)) {
				t.Fatalf("ReadFrame after the last write: %v", err)
			}
		})
	}
}

// TestCleanCacheBound checks a file pager's clean-frame cache: Flush
// keeps only the images someone read, commits that keep overwriting
// cached pages of a cache with room evict nothing, a read pass over more
// pages than the bound keeps it, and every read sees the newest image.
func TestCleanCacheBound(t *testing.T) {
	p, err := OpenBackend(faultfs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetCachePages(8)
	ids := make([]PageID, 6)
	for i := range ids {
		ids[i] = mustAlloc(t, p)
		mustWrite(t, p, ids[i], fill(byte(i)))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.Cached != 0 {
		t.Fatalf("Flush cached %d images nobody read", m.Cached)
	}
	for _, id := range ids {
		if _, err := p.ReadFrame(id); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]byte, len(ids))
	for round := 0; round < 50; round++ {
		for _, i := range []int{round % 6, (round + 3) % 6} {
			want[i] = fill(byte(10 + round))
			mustWrite(t, p, ids[i], want[i])
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if m := p.Metrics(); m.Evictions != 0 || m.Cached != 6 {
		t.Fatalf("after overwrite churn: %d evictions, %d frames cached; want 0 and 6", m.Evictions, m.Cached)
	}
	for i, id := range ids {
		if f, err := p.ReadFrame(id); err != nil || !bytes.Equal(f.Data(), want[i]) {
			t.Fatalf("page %d after overwrite churn: %v", id, err)
		}
	}
	more := make([]PageID, 10)
	for i := range more {
		more[i] = mustAlloc(t, p)
		mustWrite(t, p, more[i], fill(byte(100+i)))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for i, id := range more {
			f, err := p.ReadFrame(id)
			if err != nil || !bytes.Equal(f.Data(), fill(byte(100+i))) {
				t.Fatalf("page %d after eviction: %v", id, err)
			}
		}
	}
	if m := p.Metrics(); m.Evictions == 0 || m.Cached != 8 {
		t.Fatalf("after reading 16 pages: %d evictions, %d frames cached; want some and 8", m.Evictions, m.Cached)
	}
}
