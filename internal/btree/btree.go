// Package btree implements a counted B+-tree over fixed-size pages. It is
// the index structure underlying MASS (internal/mass): the clustered node
// index, the name index, the attribute index and the value index are all
// counted B+-trees.
//
// "Counted" means every branch entry carries the number of key/value
// entries in its subtree, so the number of keys in an arbitrary range
// [lo, hi) is computed in O(log n) page visits without touching the leaf
// data between the bounds. This is the property the paper relies on when it
// says MASS "can count node set size ... without fetching the data", and it
// is what makes VAMANA's cost estimation essentially free.
//
// Keys and values are arbitrary byte strings; iteration order is raw byte
// order. Values longer than a threshold are spilled to overflow page
// chains. A tree has one writer at a time. A tree opened over a read-only
// pager.View is never written: any number of goroutines read it at once,
// each through a Cursor of its own that carries the read's position,
// limiter and counters.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"vamana/internal/govern"
	"vamana/internal/pager"
)

// ErrKeyTooLarge is returned by Put for keys exceeding the maximum size.
var ErrKeyTooLarge = errors.New("btree: key exceeds maximum size")

// Pages is the page-storage surface a tree runs on: the full read-write
// *pager.Pager for live trees, or a read-only epoch-pinned *pager.View
// for snapshot trees (whose mutating methods fail, which a read-only
// tree never invokes). Pages travel without copies both ways: a tree
// reads the pager's own frames and hands over the frames it builds, and
// neither side modifies an image after that.
type Pages interface {
	Resident(id pager.PageID) (*pager.Frame, error)
	ReadFrame(id pager.PageID) (*pager.Frame, error)
	WriteFrame(id pager.PageID, f *pager.Frame) error
	Allocate() (pager.PageID, error)
	Free(id pager.PageID) error
}

var (
	_ Pages = (*pager.Pager)(nil)
	_ Pages = (*pager.View)(nil)
)

// Tree is a counted B+-tree. Create with New or attach to an existing root
// with Load.
//
// A tree caches nothing clean: a node is the decoded form attached to
// its page's pager frame, shared by every tree reading that version of
// the page, and the pager alone decides which frames stay resident. The
// tree keeps only the nodes it has edited since its last Flush, so that
// it reads its own writes.
type Tree struct {
	pg    Pages
	root  pager.PageID
	dirty map[pager.PageID]*node

	// m counts the writer's work: splits, and the node loads, seeks and
	// counted probes of the tree's own methods. A read through a Cursor
	// counts in the cursor.
	m    Metrics
	ent  []byte // entry encoding buffer reused by Put
	wide []byte // two-page buffer an overfull node is split from
	// mods counts Put and Delete calls. Cursors stamp it when they reach
	// a leaf and trust that leaf on a later Seek only while it is
	// unchanged (see Cursor.Seek).
	mods uint64
}

// Metrics counts node loads and structural activity: a tree's own (see
// Tree.m) or one cursor's (see Cursor.TakeMetrics). Plain fields: each
// Metrics has one writer.
type Metrics struct {
	CacheHits      uint64 // node loads served by an already-decoded frame (or the tree's own edits)
	CacheMisses    uint64 // node loads that read a page and built its slot table
	CacheEvictions uint64 // frames the pager evicted; trees leave it 0 and the owning store fills it in
	Splits         uint64 // leaf and branch node splits
	Seeks          uint64 // cursor seeks (Seek/SeekFirst/SeekLast)
	Counts         uint64 // counted-range probes (Count/Rank)
}

// Metrics returns a snapshot of the tree's own counters. Like every other
// tree method it must be called under the writer's serialization.
func (t *Tree) Metrics() Metrics { return t.m }

// TakeMetrics returns the tree's own counters and zeroes them, for an
// owner that folds them into totals of its own.
func (t *Tree) TakeMetrics() Metrics {
	m := t.m
	t.m = Metrics{}
	return m
}

// Add accumulates o into m, for aggregating across a store's trees.
func (m *Metrics) Add(o Metrics) {
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.CacheEvictions += o.CacheEvictions
	m.Splits += o.Splits
	m.Seeks += o.Seeks
	m.Counts += o.Counts
}

// New creates an empty tree whose pages are allocated from pg.
func New(pg Pages) (*Tree, error) {
	t := &Tree{pg: pg}
	root := t.newNode(true)
	t.root = root.id
	return t, nil
}

// Load attaches to the tree rooted at root, as previously reported by
// Root().
func Load(pg Pages, root pager.PageID) (*Tree, error) {
	if root == pager.InvalidPage {
		return nil, errors.New("btree: invalid root page")
	}
	t := &Tree{pg: pg, root: root}
	if _, err := t.load(root); err != nil {
		return nil, err
	}
	return t, nil
}

// Root returns the current root page id, needed to Load the tree later.
// The root can change as the tree grows, so persist it after Flush.
func (t *Tree) Root() pager.PageID { return t.root }

// Len returns the total number of entries.
func (t *Tree) Len() (uint64, error) {
	c := Cursor{t: t}
	defer t.count(&c)
	return c.Len()
}

// count adds what c, a cursor of the tree's own methods, counted to the
// tree's Metrics.
func (t *Tree) count(c *Cursor) { t.m.Add(c.m) }

func (t *Tree) newNode(leaf bool) *node {
	id, err := t.pg.Allocate()
	if err != nil {
		// Allocation fails only on closed pagers or I/O errors; surface
		// lazily through the next Flush. Creating an unstorable node here
		// would corrupt the tree, so this is fatal.
		panic(fmt.Sprintf("btree: page allocation failed: %v", err))
	}
	page := make([]byte, pager.PageSize)
	page[0] = pageBranch
	header := branchHeaderSize
	if leaf {
		page[0] = pageLeaf
		header = leafHeaderSize
	}
	return t.keep(&node{id: id, page: page, slots: []uint16{uint16(header)}, dirty: true})
}

// keep adds a node the tree edits to its dirty set.
func (t *Tree) keep(n *node) *node {
	if t.dirty == nil {
		t.dirty = make(map[pager.PageID]*node)
	}
	t.dirty[n.id] = n
	return n
}

func (t *Tree) load(id pager.PageID) (*node, error) { return t.loadFor(id, nil, &t.m) }

// loadFor is load with per-query governance, counting into m: a load
// its page's frame cannot serve already decoded charges one page read
// against lim before any I/O happens, so a tripped MaxPagesRead budget
// stops the query without issuing the read. Decoded frames are free —
// the budget bounds a query's pressure on the pager, not its key visits.
func (t *Tree) loadFor(id pager.PageID, lim *govern.Limiter, m *Metrics) (*node, error) {
	n, ok := t.dirty[id]
	var f *pager.Frame
	if !ok {
		var err error
		if f, err = t.pg.Resident(id); err != nil {
			return nil, err
		}
		if f != nil {
			n, ok = f.Decoded().(*node)
		}
	}
	if ok {
		m.CacheHits++
		lim.AddCacheHits(1)
		return n, nil
	}
	if err := lim.AddPages(1); err != nil {
		return nil, err
	}
	m.CacheMisses++
	if f == nil {
		var err error
		if f, err = t.pg.ReadFrame(id); err != nil {
			return nil, err
		}
	}
	n = &node{id: id, page: f.Data()}
	if err := n.parse(); err != nil {
		return nil, err
	}
	return f.Attach(n).(*node), nil
}

// mutable returns the node to edit for n: n itself once the tree has
// edited it since its last Flush, otherwise a private copy of n, which
// belongs to its pager frame and may be read by other trees meanwhile.
func (t *Tree) mutable(n *node) *node {
	if n.dirty {
		return n
	}
	if m, ok := t.dirty[n.id]; ok {
		return m
	}
	return t.keep(&node{
		id:    n.id,
		page:  append(make([]byte, 0, pager.PageSize), n.page...),
		slots: append([]uint16(nil), n.slots...),
		dirty: true,
	})
}

// edit replaces entries [i, j) of n, which mutable returned, with ent
// (nil removes them), in place. When the result would overflow the page,
// n is left holding it in the tree's two-page buffer, and edit returns
// n's own page for the caller to split into at once (splitLeaf,
// splitBranch); otherwise it returns nil.
func (t *Tree) edit(n *node, i, j int, ent []byte) (own []byte) {
	if n.used()+len(ent)-int(n.slots[j]-n.slots[i]) <= pager.PageSize {
		n.slots = splice(n.page, n.slots, i, j, ent)
		return nil
	}
	if t.wide == nil {
		t.wide = make([]byte, 2*pager.PageSize)
	}
	own = n.page
	copy(t.wide, own[:n.used()])
	n.page = t.wide
	n.slots = splice(n.page, n.slots, i, j, ent)
	return own
}

// Flush hands every node edited since the last Flush to the pager as a
// frame with the node already attached. From then on its page is shared
// and immutable; the node's next edit works on a copy (mutable).
func (t *Tree) Flush() error {
	for id, n := range t.dirty {
		n.dirty = false
		f := pager.NewFrame(n.page)
		f.Attach(n)
		if err := t.pg.WriteFrame(id, f); err != nil {
			n.dirty = true
			return err
		}
		delete(t.dirty, id)
	}
	return nil
}

// leafIndex returns the position of key in leaf n, or the insertion point
// and false. The binary searches here and in childIndex are written out,
// not sort.Search closures, so that a descent inlines its key reads.
func leafIndex(n *node, key []byte) (int, bool) {
	lo, hi := 0, n.entries()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch c := bytes.Compare(n.key(m), key); {
		case c < 0:
			lo = m + 1
		case c > 0:
			hi = m
		default:
			return m, true
		}
	}
	return lo, false
}

// childIndex returns the branch child whose subtree covers key: the
// number of separators <= key, where separator i begins entry i+1.
func childIndex(n *node, key []byte) int {
	lo, hi := 0, n.entries()-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.key(m+1), key) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Get returns a copy of the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	var out []byte
	ok, err := t.View(key, func(v []byte) { out = append([]byte(nil), v...) })
	return out, ok, err
}

// View invokes fn with the value stored under key, without copying it for
// inline values. The slice passed to fn is owned by the tree and must not
// be retained or modified; fn runs before View returns. Reports whether
// the key was found.
func (t *Tree) View(key []byte, fn func(v []byte)) (bool, error) {
	c := Cursor{t: t}
	defer t.count(&c)
	return c.Lookup(key, fn)
}

// splitResult describes a child split to be applied in the parent.
type splitResult struct {
	sep        []byte
	right      pager.PageID
	leftCount  uint64
	rightCount uint64
}

// Put inserts key/value, replacing any existing value. It reports whether a
// new entry was added (false means replaced).
func (t *Tree) Put(key, value []byte) (bool, error) {
	if len(key) > maxKeySize {
		return false, ErrKeyTooLarge
	}
	t.mods++
	root, err := t.load(t.root)
	if err != nil {
		return false, err
	}
	added, split, err := t.insert(root, key, value)
	if err != nil {
		return false, err
	}
	if split != nil {
		// Grow the tree: new root above the old root and its new sibling.
		nr := t.newNode(false)
		nr.slots = splice(nr.page, nr.slots, 0, 0, appendChildRef(t.ent[:0], root.id, split.leftCount))
		nr.slots = splice(nr.page, nr.slots, 1, 1, appendBranchEntry(t.ent[:0], split.sep, split.right, split.rightCount))
		t.root = nr.id
	}
	return added, nil
}

func (t *Tree) insert(n *node, key, value []byte) (bool, *splitResult, error) {
	if n.leaf() {
		return t.insertLeaf(n, key, value)
	}
	idx := childIndex(n, key)
	child, err := t.load(n.child(idx))
	if err != nil {
		return false, nil, err
	}
	added, split, err := t.insert(child, key, value)
	if err != nil {
		return false, nil, err
	}
	switch {
	case split != nil:
		n = t.mutable(n)
		n.setCount(idx, split.leftCount)
		t.ent = appendBranchEntry(t.ent[:0], split.sep, split.right, split.rightCount)
		if own := t.edit(n, idx+1, idx+1, t.ent); own != nil {
			return added, t.splitBranch(n, own), nil
		}
	case added:
		n = t.mutable(n)
		n.setCount(idx, n.count(idx)+1)
	}
	return added, nil, nil
}

func (t *Tree) insertLeaf(n *node, key, value []byte) (bool, *splitResult, error) {
	i, found := leafIndex(n, key)
	ent, err := t.leafEntry(key, value)
	if err != nil {
		return false, nil, err
	}
	j := i
	if found {
		if _, ovf, _ := n.value(i); ovf != pager.InvalidPage {
			if err := t.freeOverflow(ovf); err != nil {
				return false, nil, err
			}
		}
		j = i + 1
	}
	n = t.mutable(n)
	if own := t.edit(n, i, j, ent); own != nil {
		return !found, t.splitLeaf(n, own, i), nil
	}
	return !found, nil, nil
}

// leafEntry encodes the leaf entry for key and value into the tree's
// entry buffer, first spilling a value longer than maxInlineValue to an
// overflow chain.
func (t *Tree) leafEntry(key, value []byte) ([]byte, error) {
	e := binary.AppendUvarint(t.ent[:0], uint64(len(key)))
	e = append(e, key...)
	if len(value) <= maxInlineValue {
		e = binary.AppendUvarint(e, uint64(len(value))<<1)
		e = append(e, value...)
	} else {
		first, err := t.writeOverflow(value)
		if err != nil {
			return nil, err
		}
		e = binary.AppendUvarint(e, uint64(len(value))<<1|1)
		e = binary.LittleEndian.AppendUint32(e, uint32(first))
	}
	t.ent = e
	return e, nil
}

// splitLeaf divides an overfull leaf, which edit left in the tree's
// two-page buffer, moving its upper entries to a new right sibling and
// writing the rest back into own. insertedAt biases the split point:
// appending workloads (insertion at the right edge) split 9:1 so pages end
// up nearly full under the document-order bulk loads MASS performs.
func (t *Tree) splitLeaf(n *node, own []byte, insertedAt int) *splitResult {
	t.m.Splits++
	nk := n.entries()
	target := n.used() / 2
	if insertedAt >= nk-1 {
		target = n.used() * 9 / 10
	} else if insertedAt == 0 {
		target = n.used() / 10
	}
	split := 0
	for i := 0; i < nk-1; i++ {
		if int(n.slots[i+1]) >= target {
			split = i + 1
			break
		}
	}
	if split == 0 {
		split = max(nk/2, 1)
	}
	r := t.newNode(true)
	t.moveTail(n, r, own, split, int(n.slots[split]))
	// Stitch sibling links: n <-> r <-> old n.next.
	r.setNext(n.next())
	r.setPrev(n.id)
	if r.next() != pager.InvalidPage {
		if nn, err := t.load(r.next()); err == nil {
			t.mutable(nn).setPrev(r.id)
		}
	}
	n.setNext(r.id)
	return &splitResult{
		sep:        append([]byte(nil), r.key(0)...),
		right:      r.id,
		leftCount:  uint64(n.entries()),
		rightCount: uint64(r.entries()),
	}
}

// splitBranch divides an overfull branch (see splitLeaf) so both halves
// are under half the byte budget. The separator before the right half's
// first child moves up to the parent.
func (t *Tree) splitBranch(n *node, own []byte) *splitResult {
	t.m.Splits++
	nc := n.entries()
	target := n.used() / 2
	m := 1
	for ; m < nc-1; m++ {
		if int(n.slots[m+1]) >= target {
			break
		}
	}
	sep := append([]byte(nil), n.key(m)...)
	r := t.newNode(false)
	// The right half starts with child m's bare reference: its separator
	// is the one that moves up.
	t.moveTail(n, r, own, m, int(n.slots[m+1])-childRefSize)
	return &splitResult{
		sep:        sep,
		right:      r.id,
		leftCount:  n.subtreeCount(),
		rightCount: r.subtreeCount(),
	}
}

// moveTail finishes a split of n, which edit left in the tree's
// two-page buffer: the bytes from offset start to the end move to the
// fresh node r as its entries, and n keeps its entries [0, keep), written
// back into own, which becomes its page again.
func (t *Tree) moveTail(n, r *node, own []byte, keep, start int) {
	header := int(r.slots[0])
	copy(r.page[header:], n.page[start:n.used()])
	for _, s := range n.slots[keep+1:] {
		r.slots = append(r.slots, uint16(int(s)-start+header))
	}
	binary.LittleEndian.PutUint16(r.page[1:3], uint16(r.entries()))
	clear(own)
	copy(own, n.page[:n.slots[keep]])
	n.page = own
	n.slots = n.slots[:keep+1]
	binary.LittleEndian.PutUint16(n.page[1:3], uint16(keep))
}

// Delete removes key if present and reports whether it was found. Leaves
// are not rebalanced (deletion is rare in the XML-load workload); empty
// leaves remain linked and are skipped by cursors.
func (t *Tree) Delete(key []byte) (bool, error) {
	t.mods++
	n, err := t.load(t.root)
	if err != nil {
		return false, err
	}
	type step struct {
		n   *node
		idx int
	}
	var path []step
	for !n.leaf() {
		idx := childIndex(n, key)
		path = append(path, step{n, idx})
		if n, err = t.load(n.child(idx)); err != nil {
			return false, err
		}
	}
	i, found := leafIndex(n, key)
	if !found {
		return false, nil
	}
	if _, ovf, _ := n.value(i); ovf != pager.InvalidPage {
		if err := t.freeOverflow(ovf); err != nil {
			return false, err
		}
	}
	t.edit(t.mutable(n), i, i+1, nil)
	for _, s := range path {
		m := t.mutable(s.n)
		m.setCount(s.idx, m.count(s.idx)-1)
	}
	return true, nil
}

const overflowHeader = 4 + 2 // next page, used bytes
const overflowCap = pager.PageSize - overflowHeader

// writeOverflow spills value to a chain of freshly allocated pages and
// returns the first.
func (t *Tree) writeOverflow(value []byte) (pager.PageID, error) {
	first, err := t.pg.Allocate()
	if err != nil {
		return pager.InvalidPage, err
	}
	for id, off := first, 0; ; {
		n := min(len(value)-off, overflowCap)
		buf := make([]byte, pager.PageSize)
		binary.LittleEndian.PutUint16(buf[4:6], uint16(n))
		copy(buf[overflowHeader:], value[off:off+n])
		off += n
		next := pager.InvalidPage
		if off < len(value) {
			if next, err = t.pg.Allocate(); err != nil {
				return pager.InvalidPage, err
			}
			binary.LittleEndian.PutUint32(buf[0:4], uint32(next))
		}
		if err := t.pg.WriteFrame(id, pager.NewFrame(buf)); err != nil {
			return pager.InvalidPage, err
		}
		if next == pager.InvalidPage {
			return first, nil
		}
		id = next
	}
}

// readOverflow materializes the total bytes of the overflow chain
// starting at first.
func (t *Tree) readOverflow(first pager.PageID, total int) ([]byte, error) {
	out := make([]byte, 0, total)
	for id := first; id != pager.InvalidPage; {
		f, err := t.pg.ReadFrame(id)
		if err != nil {
			return nil, err
		}
		buf := f.Data()
		used := int(binary.LittleEndian.Uint16(buf[4:6]))
		if used > overflowCap {
			return nil, fmt.Errorf("btree: corrupt overflow page %d", id)
		}
		out = append(out, buf[overflowHeader:overflowHeader+used]...)
		id = pager.PageID(binary.LittleEndian.Uint32(buf[0:4]))
	}
	if len(out) != total {
		return nil, fmt.Errorf("btree: overflow chain length %d, want %d", len(out), total)
	}
	return out, nil
}

func (t *Tree) freeOverflow(first pager.PageID) error {
	for id := first; id != pager.InvalidPage; {
		f, err := t.pg.ReadFrame(id)
		if err != nil {
			return err
		}
		next := pager.PageID(binary.LittleEndian.Uint32(f.Data()[0:4]))
		if err := t.pg.Free(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}
