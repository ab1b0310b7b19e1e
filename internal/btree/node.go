package btree

import (
	"encoding/binary"
	"fmt"

	"vamana/internal/pager"
)

// Page type tags.
const (
	pageLeaf   = byte('L')
	pageBranch = byte('B')
)

// Page header sizes.
const (
	leafHeaderSize   = 1 + 2 + 4 + 4 // type, entry count, next, prev
	branchHeaderSize = 1 + 2         // type, entry count
	childRefSize     = 4 + 8         // page id, subtree count
)

// maxInlineValue is the largest value stored inline in a leaf entry. Longer
// values are spilled to a chain of overflow pages so that any entry fits in
// a page with room to spare.
const maxInlineValue = 2048

// maxKeySize bounds key length so that a branch page can always hold at
// least four separators.
const maxKeySize = 1024

// node is a B+-tree page, read and edited in place. The page image is a
// header followed by a run of entries and then zeros:
//
//   - a leaf entry is uvarint len(key), key, uvarint len(value)<<1|spilled,
//     then the inline value bytes, or the first overflow page's 4-byte id
//     when spilled;
//   - branch entry 0 is a child reference (4-byte page id, 8-byte subtree
//     count); branch entry i > 0 is uvarint len(sep), sep, then child
//     reference i, where sep is the smallest key under child i.
//
// The header's 2-byte count is the number of entries (keys in a leaf,
// children in a branch); a leaf header also links its siblings. slots[i]
// is the page offset of entry i and the last slot is the end of the last
// entry, so entry i is page[slots[i]:slots[i+1]]. The slot table is built
// in one pass when the page is loaded (parse) and kept current by every
// edit (splice).
//
// A clean node is the decoded form of a pager frame (see Tree.loadFor):
// it and its page never change, and every tree reading that version of
// the page shares it, so each page is held and decoded once. A tree edits
// a private copy (Tree.mutable) and Flush hands the copy to the pager as
// a new frame, after which it is clean and immutable too.
type node struct {
	id    pager.PageID
	page  []byte
	slots []uint16
	dirty bool
}

func (n *node) leaf() bool { return n.page[0] == pageLeaf }

// entries returns the number of entries: keys in a leaf, children in a
// branch.
func (n *node) entries() int { return len(n.slots) - 1 }

// used returns the number of page bytes in use, header included.
func (n *node) used() int { return int(n.slots[len(n.slots)-1]) }

// key returns the key that begins entry i: leaf key i, or in a branch
// (i > 0) the separator before child i, the smallest key under it. The
// view's capacity ends with the key, so an append by the caller copies.
func (n *node) key(i int) []byte {
	k, _ := n.keyAt(int(n.slots[i]))
	return k
}

// keyAt returns the key framed at off and the offset just past it. A key
// is at most maxKeySize bytes (parse checks), so its length takes one or
// two varint bytes, decoded here without a call.
func (n *node) keyAt(off int) ([]byte, int) {
	p := n.page
	l := int(p[off])
	if l >= 0x80 {
		off++
		l = l&0x7f | int(p[off])<<7
	}
	off++
	return p[off : off+l : off+l], off + l
}

// valueAt decodes the leaf value framed at off: its inline bytes (nil
// when empty), or the first page and total length of its overflow chain.
func (n *node) valueAt(off int) (inline []byte, overflow pager.PageID, total int) {
	info, w := binary.Uvarint(n.page[off:])
	off += w
	l := int(info >> 1)
	if info&1 == 1 {
		return nil, pager.PageID(binary.LittleEndian.Uint32(n.page[off:])), l
	}
	if l == 0 {
		return nil, pager.InvalidPage, 0
	}
	return n.page[off : off+l : off+l], pager.InvalidPage, l
}

// value decodes leaf entry i's value; see valueAt.
func (n *node) value(i int) ([]byte, pager.PageID, int) {
	_, off := n.keyAt(int(n.slots[i]))
	return n.valueAt(off)
}

// childRef returns the offset of branch child i's reference, the last
// childRefSize bytes of entry i.
func (n *node) childRef(i int) int { return int(n.slots[i+1]) - childRefSize }

func (n *node) child(i int) pager.PageID {
	return pager.PageID(binary.LittleEndian.Uint32(n.page[n.childRef(i):]))
}

func (n *node) count(i int) uint64 {
	return binary.LittleEndian.Uint64(n.page[n.childRef(i)+4:])
}

func (n *node) setCount(i int, c uint64) {
	binary.LittleEndian.PutUint64(n.page[n.childRef(i)+4:], c)
}

func (n *node) next() pager.PageID { return pager.PageID(binary.LittleEndian.Uint32(n.page[3:7])) }
func (n *node) prev() pager.PageID { return pager.PageID(binary.LittleEndian.Uint32(n.page[7:11])) }

func (n *node) setNext(id pager.PageID) { binary.LittleEndian.PutUint32(n.page[3:7], uint32(id)) }
func (n *node) setPrev(id pager.PageID) { binary.LittleEndian.PutUint32(n.page[7:11], uint32(id)) }

// subtreeCount returns the number of entries under n.
func (n *node) subtreeCount() uint64 {
	if n.leaf() {
		return uint64(n.entries())
	}
	var s uint64
	for i := 0; i < n.entries(); i++ {
		s += n.count(i)
	}
	return s
}

// parse validates n.page and builds its slot table in one pass over the
// entry frames.
func (n *node) parse() error {
	p := n.page
	if len(p) != pager.PageSize {
		return fmt.Errorf("btree: page %d is %d bytes", n.id, len(p))
	}
	leaf := p[0] == pageLeaf
	off := leafHeaderSize
	switch {
	case leaf:
	case p[0] == pageBranch:
		off = branchHeaderSize
	default:
		return fmt.Errorf("btree: page %d has unknown type %q", n.id, p[0])
	}
	c := int(binary.LittleEndian.Uint16(p[1:3]))
	if !leaf && c == 0 {
		return fmt.Errorf("btree: corrupt branch %d", n.id)
	}
	slots := make([]uint16, c+1)
	for i := 0; i < c; i++ {
		slots[i] = uint16(off)
		if leaf {
			off = skipFrame(p, off, false)
			if off >= 0 {
				off = skipFrame(p, off, true)
			}
		} else {
			if i > 0 {
				off = skipFrame(p, off, false)
			}
			if off >= 0 {
				off += childRefSize
			}
		}
		if off < 0 || off > len(p) {
			if leaf {
				return fmt.Errorf("btree: corrupt leaf %d", n.id)
			}
			return fmt.Errorf("btree: corrupt branch %d", n.id)
		}
	}
	slots[c] = uint16(off)
	n.slots = slots
	return nil
}

// skipFrame returns the offset just past the uvarint-framed field at off,
// or -1 when it runs off the page or frames a key longer than maxKeySize.
// A leaf value frame (value) carries its length shifted left by one, with
// the low bit marking a 4-byte overflow reference in place of the bytes.
func skipFrame(p []byte, off int, value bool) int {
	if off >= len(p) {
		return -1
	}
	x, w := binary.Uvarint(p[off:])
	if value {
		if x&1 == 1 {
			x = 4
		} else {
			x >>= 1
		}
	}
	if w <= 0 || x > uint64(len(p)) || (!value && x > maxKeySize) {
		return -1
	}
	return off + w + int(x)
}

// splice replaces entries [i, j) of page with ent — one encoded entry, or
// none when nil — moving the entries after them, and returns the updated
// slot table. page must have room for the result. Bytes the edit frees at
// the end are zeroed, so a page stays byte-identical to one written from
// scratch.
func splice(page []byte, slots []uint16, i, j int, ent []byte) []uint16 {
	start, end, used := int(slots[i]), int(slots[j]), int(slots[len(slots)-1])
	delta := len(ent) - (end - start)
	copy(page[start+len(ent):], page[end:used])
	copy(page[start:], ent)
	if delta < 0 {
		clear(page[used+delta : used])
	}
	k := 0
	if ent != nil {
		k = 1
	}
	switch {
	case k > j-i:
		slots = append(slots, 0)
		copy(slots[j+1:], slots[j:])
	case k < j-i:
		slots = append(slots[:i+k], slots[j:]...)
	}
	for x := i + k; x < len(slots); x++ {
		slots[x] = uint16(int(slots[x]) + delta)
	}
	binary.LittleEndian.PutUint16(page[1:3], uint16(len(slots)-1))
	return slots
}

// appendChildRef encodes a branch child reference.
func appendChildRef(dst []byte, id pager.PageID, count uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	return binary.LittleEndian.AppendUint64(dst, count)
}

// appendBranchEntry encodes a branch entry past the first: the separator
// and the reference of the child it begins.
func appendBranchEntry(dst, sep []byte, id pager.PageID, count uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(sep)))
	dst = append(dst, sep...)
	return appendChildRef(dst, id, count)
}
