package pager

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"vamana/internal/pager/faultfs"
)

// fuzzBase lazily builds the canonical clean snapshot shared by fuzz
// iterations: pages 2 and 3 with known fills and user meta "v1".
var fuzzBase struct {
	once sync.Once
	snap []byte
	pa   PageID
	pb   PageID
}

func fuzzBaseSnapshot(t *testing.T) ([]byte, PageID, PageID) {
	fuzzBase.once.Do(func() {
		b := faultfs.New()
		p, err := OpenBackend(b)
		if err != nil {
			t.Fatal(err)
		}
		fuzzBase.pa, _ = p.Allocate()
		fuzzBase.pb, _ = p.Allocate()
		if err := p.Write(fuzzBase.pa, fill('A')); err != nil {
			t.Fatal(err)
		}
		if err := p.Write(fuzzBase.pb, fill('B')); err != nil {
			t.Fatal(err)
		}
		p.SetUserMeta(userMetaOf("v1"))
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		fuzzBase.snap = b.Snapshot()
	})
	return fuzzBase.snap, fuzzBase.pa, fuzzBase.pb
}

// FuzzPagerReopen feeds the pager two hostile inputs per iteration:
//
//  1. raw bytes opened as a page file — Open must return a typed error or
//     a usable pager, never panic, and no page read may panic;
//  2. the canonical clean snapshot with one byte XORed — Open must
//     succeed (at most one meta copy can be damaged), and every live page
//     read must either fail with ErrChecksum or return exactly the
//     expected payload. Silent corruption fails the fuzz run.
func FuzzPagerReopen(f *testing.F) {
	f.Add([]byte{}, uint64(0), byte(0))
	f.Add([]byte("not a page file"), uint64(5), byte(0xFF))
	f.Add(bytes.Repeat([]byte{0xAA}, 3*DiskPageSize), uint64(DiskPageSize), byte(1))
	f.Add(bytes.Repeat([]byte{0x00}, 2*DiskPageSize+17), uint64(2*DiskPageSize), byte(0x80))

	f.Fuzz(func(t *testing.T, raw []byte, off uint64, xor byte) {
		// Part 1: arbitrary bytes as a page file.
		if p, err := OpenBackend(faultfs.FromBytes(raw)); err == nil {
			buf := make([]byte, PageSize)
			n := p.NumPages()
			if n > 64 { // garbage meta may claim a huge page count; sample
				n = 64
			}
			for id := int(firstDataPage); id < n; id++ {
				_ = p.Read(PageID(id), buf) // must not panic; errors are fine
			}
			p.Close()
		}

		// Part 2: one-byte damage to a known-good snapshot.
		snap, pa, pb := fuzzBaseSnapshot(t)
		img := append([]byte(nil), snap...)
		if xor != 0 && len(img) > 0 {
			img[off%uint64(len(img))] ^= xor
		}
		p, err := OpenBackend(faultfs.FromBytes(img))
		if err != nil {
			t.Fatalf("open with one damaged byte must recover via the surviving meta copy: %v", err)
		}
		defer p.Close()
		buf := make([]byte, PageSize)
		for _, pg := range []struct {
			id   PageID
			want byte
		}{{pa, 'A'}, {pb, 'B'}} {
			err := p.Read(pg.id, buf)
			if err != nil {
				if !errors.Is(err, ErrChecksum) {
					t.Fatalf("page %d read failed with untyped error: %v", pg.id, err)
				}
				continue
			}
			for i, b := range buf {
				if b != pg.want {
					t.Fatalf("silent corruption: page %d byte %d is %#x, want %q", pg.id, i, b, pg.want)
				}
			}
		}
	})
}
