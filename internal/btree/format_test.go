package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vamana/internal/pager"
)

// The format oracle: the page codec from before nodes read their pages in
// place. It decodes a whole page into Go slices and encodes it back, and
// it is kept here, apart from node.go, as the definition of the on-disk
// format that the in-place code must write byte for byte.

// oracleNode is a page decoded by the oracle. Leaves hold sorted
// key/value entries plus sibling links; branches hold child references
// with subtree counts and the separators between them (keys[i] is the
// smallest key under children[i+1]).
type oracleNode struct {
	id   pager.PageID
	leaf bool

	keys [][]byte
	vals []oracleValue
	next pager.PageID
	prev pager.PageID

	children []pager.PageID
	counts   []uint64
}

// oracleValue is an inline value or a reference to an overflow chain.
type oracleValue struct {
	inline   []byte
	overflow pager.PageID // InvalidPage when inline
	totalLen int          // length of the full value when overflow
}

func (v oracleValue) isOverflow() bool { return v.overflow != pager.InvalidPage }

// serialize renders n into buf, which must be pager.PageSize long.
func (n *oracleNode) serialize(buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	if n.leaf {
		if len(n.keys) > 0xFFFF {
			return fmt.Errorf("btree: leaf %d has %d keys", n.id, len(n.keys))
		}
		buf[0] = pageLeaf
		binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.keys)))
		binary.LittleEndian.PutUint32(buf[3:7], uint32(n.next))
		binary.LittleEndian.PutUint32(buf[7:11], uint32(n.prev))
		off := leafHeaderSize
		for i, k := range n.keys {
			off += binary.PutUvarint(buf[off:], uint64(len(k)))
			off += copy(buf[off:], k)
			v := n.vals[i]
			if v.isOverflow() {
				off += binary.PutUvarint(buf[off:], uint64(v.totalLen)<<1|1)
				binary.LittleEndian.PutUint32(buf[off:off+4], uint32(v.overflow))
				off += 4
			} else {
				off += binary.PutUvarint(buf[off:], uint64(len(v.inline))<<1)
				off += copy(buf[off:], v.inline)
			}
		}
		if off > pager.PageSize {
			return fmt.Errorf("btree: leaf %d overflows page (%d bytes)", n.id, off)
		}
		return nil
	}
	if len(n.children) > 0xFFFF {
		return fmt.Errorf("btree: branch %d has %d children", n.id, len(n.children))
	}
	buf[0] = pageBranch
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.children)))
	off := branchHeaderSize
	for i, c := range n.children {
		if i > 0 {
			sep := n.keys[i-1]
			off += binary.PutUvarint(buf[off:], uint64(len(sep)))
			off += copy(buf[off:], sep)
		}
		binary.LittleEndian.PutUint32(buf[off:off+4], uint32(c))
		binary.LittleEndian.PutUint64(buf[off+4:off+12], n.counts[i])
		off += childRefSize
	}
	if off > pager.PageSize {
		return fmt.Errorf("btree: branch %d overflows page (%d bytes)", n.id, off)
	}
	return nil
}

// deserialize parses buf into n (which must have id set).
func (n *oracleNode) deserialize(buf []byte) error {
	switch buf[0] {
	case pageLeaf:
		n.leaf = true
		nk := int(binary.LittleEndian.Uint16(buf[1:3]))
		n.next = pager.PageID(binary.LittleEndian.Uint32(buf[3:7]))
		n.prev = pager.PageID(binary.LittleEndian.Uint32(buf[7:11]))
		n.keys = make([][]byte, 0, nk)
		n.vals = make([]oracleValue, 0, nk)
		off := leafHeaderSize
		for i := 0; i < nk; i++ {
			klen, w := binary.Uvarint(buf[off:])
			if w <= 0 || off+w+int(klen) > len(buf) {
				return fmt.Errorf("btree: corrupt leaf %d", n.id)
			}
			off += w
			k := append([]byte(nil), buf[off:off+int(klen)]...)
			off += int(klen)
			vinfo, w := binary.Uvarint(buf[off:])
			if w <= 0 {
				return fmt.Errorf("btree: corrupt leaf %d", n.id)
			}
			off += w
			var v oracleValue
			if vinfo&1 == 1 {
				v.totalLen = int(vinfo >> 1)
				v.overflow = pager.PageID(binary.LittleEndian.Uint32(buf[off : off+4]))
				off += 4
			} else {
				vlen := int(vinfo >> 1)
				if off+vlen > len(buf) {
					return fmt.Errorf("btree: corrupt leaf %d", n.id)
				}
				v.inline = append([]byte(nil), buf[off:off+vlen]...)
				off += vlen
			}
			n.keys = append(n.keys, k)
			n.vals = append(n.vals, v)
		}
		return nil
	case pageBranch:
		n.leaf = false
		nc := int(binary.LittleEndian.Uint16(buf[1:3]))
		n.children = make([]pager.PageID, 0, nc)
		n.counts = make([]uint64, 0, nc)
		n.keys = make([][]byte, 0, nc-1)
		off := branchHeaderSize
		for i := 0; i < nc; i++ {
			if i > 0 {
				klen, w := binary.Uvarint(buf[off:])
				if w <= 0 || off+w+int(klen) > len(buf) {
					return fmt.Errorf("btree: corrupt branch %d", n.id)
				}
				off += w
				k := append([]byte(nil), buf[off:off+int(klen)]...)
				off += int(klen)
				n.keys = append(n.keys, k)
			}
			n.children = append(n.children, pager.PageID(binary.LittleEndian.Uint32(buf[off:off+4])))
			n.counts = append(n.counts, binary.LittleEndian.Uint64(buf[off+4:off+12]))
			off += childRefSize
		}
		return nil
	default:
		return fmt.Errorf("btree: page %d has unknown type %q", n.id, buf[0])
	}
}

// recordingPages is a memory pager that notes which pages a tree stores
// and frees.
type recordingPages struct {
	*pager.Pager
	stored map[pager.PageID]bool
	freed  map[pager.PageID]bool
}

func newRecordingPages() *recordingPages {
	return &recordingPages{Pager: pager.NewMemory(), stored: map[pager.PageID]bool{}, freed: map[pager.PageID]bool{}}
}

func (r *recordingPages) WriteFrame(id pager.PageID, f *pager.Frame) error {
	r.stored[id] = true
	delete(r.freed, id)
	return r.Pager.WriteFrame(id, f)
}

func (r *recordingPages) Free(id pager.PageID) error {
	r.freed[id] = true
	return r.Pager.Free(id)
}

// checkAgainstOracle decodes every page of tr with the oracle, starting at
// its root, and checks that each re-encodes to exactly the stored bytes,
// that counts, separators and sibling links agree, and that the leaves
// hold exactly model. Every page the tree stored must be one of its pages,
// an overflow page of a live value, or a freed page. It returns the
// tree's height.
func checkAgainstOracle(t *testing.T, pg *recordingPages, tr *Tree, model map[string]string) (levels int) {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	read := func(id pager.PageID) []byte {
		f, err := pg.ReadFrame(id)
		if err != nil {
			t.Fatalf("read page %d: %v", id, err)
		}
		return f.Data()
	}
	seen := map[pager.PageID]bool{}
	var leaves []*oracleNode
	buf := make([]byte, pager.PageSize)
	// walk returns the entry count under id, at depth level; lo and hi
	// (nil: open) bound the keys it may hold.
	var walk func(id pager.PageID, level int, lo, hi []byte) uint64
	walk = func(id pager.PageID, level int, lo, hi []byte) uint64 {
		levels = max(levels, level)
		img := read(id)
		seen[id] = true
		n := &oracleNode{id: id}
		if err := n.deserialize(img); err != nil {
			t.Fatalf("oracle cannot decode page %d: %v", id, err)
		}
		if err := n.serialize(buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, img) {
			t.Fatalf("page %d differs from the oracle's encoding of its contents", id)
		}
		for i, k := range n.keys {
			if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) ||
				(i > 0 && bytes.Compare(n.keys[i-1], k) >= 0) {
				t.Fatalf("page %d: key %d (%q) out of order or outside [%q, %q)", id, i, k, lo, hi)
			}
		}
		if n.leaf {
			leaves = append(leaves, n)
			return uint64(len(n.keys))
		}
		var total uint64
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if got := walk(c, level+1, clo, chi); got != n.counts[i] {
				t.Fatalf("branch %d: child %d holds %d entries, count says %d", id, c, got, n.counts[i])
			}
			total += n.counts[i]
		}
		return total
	}
	if got := walk(tr.Root(), 1, nil, nil); got != uint64(len(model)) {
		t.Fatalf("tree holds %d entries, model %d", got, len(model))
	}
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)
	i := 0
	for li, n := range leaves {
		prev, next := pager.InvalidPage, pager.InvalidPage
		if li > 0 {
			prev = leaves[li-1].id
		}
		if li+1 < len(leaves) {
			next = leaves[li+1].id
		}
		if n.prev != prev || n.next != next {
			t.Fatalf("leaf %d links prev %d next %d, want %d and %d", n.id, n.prev, n.next, prev, next)
		}
		for j, k := range n.keys {
			v := n.vals[j]
			got := string(v.inline)
			if v.isOverflow() {
				for id := v.overflow; id != pager.InvalidPage; {
					seen[id] = true
					img := read(id)
					used := int(binary.LittleEndian.Uint16(img[4:6]))
					got += string(img[overflowHeader : overflowHeader+used])
					id = pager.PageID(binary.LittleEndian.Uint32(img[0:4]))
				}
				if len(got) != v.totalLen || v.totalLen <= maxInlineValue {
					t.Fatalf("key %q: overflow chain holds %d bytes, entry says %d", k, len(got), v.totalLen)
				}
			}
			if string(k) != want[i] || got != model[want[i]] {
				t.Fatalf("entry %d is %q=%.20q, want %q=%.20q", i, k, got, want[i], model[want[i]])
			}
			i++
		}
	}
	for id := range pg.stored {
		if !seen[id] && !pg.freed[id] {
			t.Fatalf("page %d was stored but is neither a tree page, a live overflow page nor freed", id)
		}
	}
	return levels
}

// TestQuickPagesMatchFormatOracle runs random Put/Delete/Flush sequences
// with keys long enough to grow three levels and values long enough to
// spill, and checks every stored page against the format oracle.
func TestQuickPagesMatchFormatOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pg := newRecordingPages()
		tr, err := New(pg)
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]string{}
		key := func() string {
			n := rng.Intn(6000)
			return fmt.Sprintf("%04d%s", n, bytes.Repeat([]byte{'k'}, n%500))
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(20); {
			case r < 15:
				k, v := key(), fmt.Sprintf("v%d", rng.Int63())
				if r == 0 {
					v = string(bytes.Repeat([]byte(v), 1+rng.Intn(1500)))
				}
				if _, err := tr.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			case r < 19:
				k := key()
				if _, err := tr.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			default:
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if levels := checkAgainstOracle(t, pg, tr, model); levels < 3 {
			t.Fatalf("seed %d grew %d levels; the check needs branch splits", seed, levels)
		}
		// A tree loaded from the stored pages reads back the same entries.
		tr2, err := Load(pg, tr.Root())
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range model {
			if got, ok, err := tr2.Get([]byte(k)); err != nil || !ok || string(got) != v {
				t.Fatalf("reloaded Get(%.20q) = %.20q, %v, %v", k, got, ok, err)
			}
		}
		if n, err := tr2.Len(); err != nil || n != uint64(len(model)) {
			t.Fatalf("reloaded Len = %d, %v; want %d", n, err, len(model))
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
