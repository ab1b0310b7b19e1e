package pager

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
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

// TestSharedImagesNeverChange pins the zero-copy contract: ReadShared
// hands out the pager's own image where it holds one, WriteShared keeps
// the caller's image, Write copies, and no later write changes an image a
// ReadShared caller holds — on memory and file pagers, with and without a
// pinned view.
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
			if mode == "memory" {
				img, err := p.ReadShared(id)
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
			held, err := p.ReadShared(id)
			if err != nil || !bytes.Equal(held, fill(1)) {
				t.Fatalf("ReadShared after Write: %v", err)
			}
			own := fill(3)
			if err := p.WriteShared(id, own); err != nil {
				t.Fatal(err)
			}
			got, err := p.ReadShared(id)
			if err != nil || &got[0] != &own[0] {
				t.Fatalf("ReadShared after WriteShared is not the written image (%v)", err)
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
			if got, err := p.ReadShared(id); err != nil || !bytes.Equal(got, fill(4)) {
				t.Fatalf("ReadShared after the last write: %v", err)
			}
		})
	}
}
