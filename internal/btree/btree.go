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
// chains. Trees are not safe for concurrent use; callers serialize access.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"vamana/internal/govern"
	"vamana/internal/pager"
)

// ErrKeyTooLarge is returned by Put for keys exceeding the maximum size.
var ErrKeyTooLarge = errors.New("btree: key exceeds maximum size")

// Pages is the page-storage surface a tree runs on: the full read-write
// *pager.Pager for live trees, or a read-only epoch-pinned *pager.View
// for snapshot trees (whose mutating methods fail, which a read-only
// tree never invokes).
type Pages interface {
	Read(id pager.PageID, buf []byte) error
	Write(id pager.PageID, buf []byte) error
	Allocate() (pager.PageID, error)
	Free(id pager.PageID) error
	InMemory() bool
}

var (
	_ Pages = (*pager.Pager)(nil)
	_ Pages = (*pager.View)(nil)
)

// Tree is a counted B+-tree. Create with New or attach to an existing root
// with Load.
type Tree struct {
	pg   Pages
	root pager.PageID

	cache    map[pager.PageID]*node
	maxCache int     // evict above this many cached nodes (file-backed pagers only)
	clock    []*node // eviction ring
	hand     int
	scratch  []byte  // page-size buffer reused for I/O
	m        Metrics // plain counters; callers serialize tree access
	// mods counts Put and Delete calls. Cursors stamp it when they reach
	// a leaf and trust that leaf on a later Seek only while it is
	// unchanged (see Cursor.Seek).
	mods uint64
}

// Metrics counts the tree's node-cache and structural activity since it
// was created or loaded. Trees are externally serialized (see package
// doc), so plain fields are race-clean under the caller's lock.
type Metrics struct {
	CacheHits      uint64 // node loads served from the deserialized-node cache
	CacheMisses    uint64 // node loads that read and deserialized a page
	CacheEvictions uint64 // nodes evicted from the cache
	Splits         uint64 // leaf and branch node splits
	Seeks          uint64 // cursor seeks (Seek/SeekFirst/SeekLast)
	Counts         uint64 // counted-range probes (Count/Rank)
}

// Metrics returns a snapshot of the tree's counters. Like every other
// tree method it must be called under the owner's serialization.
func (t *Tree) Metrics() Metrics { return t.m }

// Add accumulates o into m, for aggregating across a store's trees.
func (m *Metrics) Add(o Metrics) {
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.CacheEvictions += o.CacheEvictions
	m.Splits += o.Splits
	m.Seeks += o.Seeks
	m.Counts += o.Counts
}

// defaultMaxCache bounds the node cache for file-backed pagers. Memory
// pagers never evict (the pager already holds every page in memory).
const defaultMaxCache = 1024

// New creates an empty tree whose pages are allocated from pg.
func New(pg Pages) (*Tree, error) {
	t := newTree(pg)
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
	t := newTree(pg)
	t.root = root
	if _, err := t.load(root); err != nil {
		return nil, err
	}
	return t, nil
}

func newTree(pg Pages) *Tree {
	mc := defaultMaxCache
	if pg.InMemory() {
		mc = 1 << 30
	}
	return &Tree{
		pg:       pg,
		cache:    make(map[pager.PageID]*node),
		maxCache: mc,
		scratch:  make([]byte, pager.PageSize),
	}
}

// SetMaxCache bounds the deserialized-node cache for file-backed pagers
// (memory pagers never evict: their pages already live in memory, so
// eviction would only add churn).
func (t *Tree) SetMaxCache(n int) {
	if n < 16 {
		n = 16
	}
	if !t.pg.InMemory() {
		t.maxCache = n
	}
}

// Root returns the current root page id, needed to Load the tree later.
// The root can change as the tree grows, so persist it after Flush.
func (t *Tree) Root() pager.PageID { return t.root }

// Len returns the total number of entries.
func (t *Tree) Len() (uint64, error) {
	r, err := t.load(t.root)
	if err != nil {
		return 0, err
	}
	return r.subtreeCount(), nil
}

func (t *Tree) newNode(leaf bool) *node {
	id, err := t.pg.Allocate()
	if err != nil {
		// Allocation fails only on closed pagers or I/O errors; surface
		// lazily through the next Flush. Creating an unstorable node here
		// would corrupt the tree, so this is fatal.
		panic(fmt.Sprintf("btree: page allocation failed: %v", err))
	}
	n := &node{id: id, leaf: leaf, dirty: true}
	if leaf {
		n.bytes = leafHeaderSize
	} else {
		n.bytes = branchHeaderSize
	}
	t.cache[id] = n
	t.clock = append(t.clock, n)
	return n
}

func (t *Tree) load(id pager.PageID) (*node, error) { return t.loadFor(id, nil) }

// loadFor is load with per-query governance: a node-cache miss charges one
// page read against lim before the I/O happens, so a tripped MaxPagesRead
// budget stops the query without issuing the read. Cache hits are free —
// the budget bounds a query's pressure on the pager, not its key visits.
func (t *Tree) loadFor(id pager.PageID, lim *govern.Limiter) (*node, error) {
	if n, ok := t.cache[id]; ok {
		t.m.CacheHits++
		lim.AddCacheHits(1)
		return n, nil
	}
	if err := lim.AddPages(1); err != nil {
		return nil, err
	}
	t.m.CacheMisses++
	if err := t.pg.Read(id, t.scratch); err != nil {
		return nil, err
	}
	n := &node{id: id}
	if err := n.deserialize(t.scratch); err != nil {
		return nil, err
	}
	t.cache[id] = n
	t.clock = append(t.clock, n)
	return n, nil
}

func (t *Tree) store(n *node) error {
	if !n.dirty {
		return nil
	}
	if err := n.serialize(t.scratch); err != nil {
		return err
	}
	if err := t.pg.Write(n.id, t.scratch); err != nil {
		return err
	}
	n.dirty = false
	return nil
}

// Flush writes all dirty nodes back to the pager.
func (t *Tree) Flush() error {
	for _, n := range t.cache {
		if err := t.store(n); err != nil {
			return err
		}
	}
	return nil
}

// AdoptCache seeds t's node cache with prev's entries, skipping page ids
// for which skip returns true (nil skips nothing). It exists for
// adjacent read-only snapshot trees: when the only pages that changed
// between two committed versions are in the skip set, every other page
// is byte-identical, so the previous snapshot's decoded nodes are valid
// for the new one and carry over by pointer — a fresh snapshot starts
// with a warm cache instead of re-decoding its working set from scratch.
// Sharing *node objects is safe only because read-only trees never
// mutate a node after deserializing it; the caller must serialize access
// to both trees for the duration of the call.
func (t *Tree) AdoptCache(prev *Tree, skip func(pager.PageID) bool) {
	for id, n := range prev.cache {
		if n.dirty || (skip != nil && skip(id)) {
			continue
		}
		if _, ok := t.cache[id]; ok {
			continue
		}
		t.cache[id] = n
		t.clock = append(t.clock, n)
	}
}

// maybeEvict trims the cache after a public operation completes. It is
// never called mid-operation, so no in-use node is dropped.
func (t *Tree) maybeEvict() error {
	for len(t.clock) > t.maxCache {
		if t.hand >= len(t.clock) {
			t.hand = 0
		}
		n := t.clock[t.hand]
		if err := t.store(n); err != nil {
			return err
		}
		delete(t.cache, n.id)
		t.m.CacheEvictions++
		t.clock[t.hand] = t.clock[len(t.clock)-1]
		t.clock = t.clock[:len(t.clock)-1]
	}
	return nil
}

// leafIndex returns the position of key in leaf n, or the insertion point
// and false.
func leafIndex(n *node, key []byte) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		return i, true
	}
	return i, false
}

// childIndex returns the branch child whose subtree covers key.
func childIndex(n *node, key []byte) int {
	// Number of separators <= key.
	return sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) > 0 })
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	n, err := t.load(t.root)
	if err != nil {
		return nil, false, err
	}
	for !n.leaf {
		if n, err = t.load(n.children[childIndex(n, key)]); err != nil {
			return nil, false, err
		}
	}
	i, ok := leafIndex(n, key)
	if !ok {
		return nil, false, nil
	}
	v, err := t.readValue(n.vals[i])
	if err != nil {
		return nil, false, err
	}
	if err := t.maybeEvict(); err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// View invokes fn with the value stored under key, without copying it for
// inline values. The slice passed to fn is owned by the tree and must not
// be retained or modified; fn runs before View returns. Reports whether
// the key was found.
func (t *Tree) View(key []byte, fn func(v []byte)) (bool, error) {
	n, err := t.load(t.root)
	if err != nil {
		return false, err
	}
	for !n.leaf {
		if n, err = t.load(n.children[childIndex(n, key)]); err != nil {
			return false, err
		}
	}
	i, ok := leafIndex(n, key)
	if !ok {
		return false, nil
	}
	lv := n.vals[i]
	if lv.isOverflow() {
		v, err := t.readValue(lv)
		if err != nil {
			return false, err
		}
		fn(v)
		return true, nil
	}
	fn(lv.inline)
	return true, nil
}

// Has reports whether key is present without materializing its value.
func (t *Tree) Has(key []byte) (bool, error) {
	n, err := t.load(t.root)
	if err != nil {
		return false, err
	}
	for !n.leaf {
		if n, err = t.load(n.children[childIndex(n, key)]); err != nil {
			return false, err
		}
	}
	_, ok := leafIndex(n, key)
	return ok, nil
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
		nr.children = []pager.PageID{root.id, split.right}
		nr.counts = []uint64{split.leftCount, split.rightCount}
		nr.keys = [][]byte{split.sep}
		nr.bytes = branchHeaderSize + childRefSize + branchEntrySize(split.sep)
		t.root = nr.id
	}
	return added, t.maybeEvict()
}

func (t *Tree) insert(n *node, key, value []byte) (bool, *splitResult, error) {
	if n.leaf {
		return t.insertLeaf(n, key, value)
	}
	idx := childIndex(n, key)
	child, err := t.load(n.children[idx])
	if err != nil {
		return false, nil, err
	}
	added, split, err := t.insert(child, key, value)
	if err != nil {
		return false, nil, err
	}
	n.dirty = true
	if added {
		n.counts[idx]++
	}
	if split != nil {
		n.counts[idx] = split.leftCount
		n.keys = insertBytesAt(n.keys, idx, split.sep)
		n.children = insertPageAt(n.children, idx+1, split.right)
		n.counts = insertCountAt(n.counts, idx+1, split.rightCount)
		n.bytes += branchEntrySize(split.sep)
		if n.bytes > pager.PageSize {
			return added, t.splitBranch(n), nil
		}
	}
	return added, nil, nil
}

func (t *Tree) insertLeaf(n *node, key, value []byte) (bool, *splitResult, error) {
	i, found := leafIndex(n, key)
	lv, err := t.makeValue(value)
	if err != nil {
		return false, nil, err
	}
	n.dirty = true
	if found {
		old := n.vals[i]
		n.bytes -= leafEntrySize(n.keys[i], old)
		if old.isOverflow() {
			if err := t.freeOverflow(old.overflow); err != nil {
				return false, nil, err
			}
		}
		n.vals[i] = lv
		n.bytes += leafEntrySize(n.keys[i], lv)
		if n.bytes > pager.PageSize {
			return false, t.splitLeaf(n, i), nil
		}
		return false, nil, nil
	}
	k := append([]byte(nil), key...)
	n.keys = insertBytesAt(n.keys, i, k)
	n.vals = insertValAt(n.vals, i, lv)
	n.bytes += leafEntrySize(k, lv)
	if n.bytes > pager.PageSize {
		return true, t.splitLeaf(n, i), nil
	}
	return true, nil, nil
}

// splitLeaf divides an overfull leaf. insertedAt biases the split point:
// appending workloads (insertion at the right edge) split 9:1 so pages end
// up nearly full under the document-order bulk loads MASS performs.
func (t *Tree) splitLeaf(n *node, insertedAt int) *splitResult {
	t.m.Splits++
	target := n.bytes / 2
	if insertedAt >= len(n.keys)-1 {
		target = n.bytes * 9 / 10
	} else if insertedAt == 0 {
		target = n.bytes / 10
	}
	acc := leafHeaderSize
	split := 0
	for i := 0; i < len(n.keys)-1; i++ {
		acc += leafEntrySize(n.keys[i], n.vals[i])
		if acc >= target {
			split = i + 1
			break
		}
	}
	if split == 0 {
		split = len(n.keys) / 2
		if split == 0 {
			split = 1
		}
	}
	r := t.newNode(true)
	r.keys = append(r.keys, n.keys[split:]...)
	r.vals = append(r.vals, n.vals[split:]...)
	n.keys = n.keys[:split]
	n.vals = n.vals[:split]
	n.bytes = leafHeaderSize
	for i := range n.keys {
		n.bytes += leafEntrySize(n.keys[i], n.vals[i])
	}
	r.bytes = leafHeaderSize
	for i := range r.keys {
		r.bytes += leafEntrySize(r.keys[i], r.vals[i])
	}
	// Stitch sibling links: n <-> r <-> old n.next.
	r.next = n.next
	r.prev = n.id
	if r.next != pager.InvalidPage {
		if nn, err := t.load(r.next); err == nil {
			nn.prev = r.id
			nn.dirty = true
		}
	}
	n.next = r.id
	n.dirty = true
	return &splitResult{
		sep:        append([]byte(nil), r.keys[0]...),
		right:      r.id,
		leftCount:  uint64(len(n.keys)),
		rightCount: uint64(len(r.keys)),
	}
}

func (t *Tree) splitBranch(n *node) *splitResult {
	t.m.Splits++
	// Split children so both halves are under half the byte budget.
	target := n.bytes / 2
	acc := branchHeaderSize + childRefSize
	m := 1
	for ; m < len(n.children)-1; m++ {
		acc += branchEntrySize(n.keys[m-1])
		if acc >= target {
			break
		}
	}
	sep := n.keys[m-1]
	r := t.newNode(false)
	r.children = append(r.children, n.children[m:]...)
	r.counts = append(r.counts, n.counts[m:]...)
	r.keys = append(r.keys, n.keys[m:]...)
	n.children = n.children[:m]
	n.counts = n.counts[:m]
	n.keys = n.keys[:m-1]
	recalcBranchBytes(n)
	recalcBranchBytes(r)
	n.dirty = true
	return &splitResult{
		sep:        sep,
		right:      r.id,
		leftCount:  n.subtreeCount(),
		rightCount: r.subtreeCount(),
	}
}

func recalcBranchBytes(n *node) {
	n.bytes = branchHeaderSize + childRefSize*len(n.children)
	for _, k := range n.keys {
		n.bytes += branchEntrySize(k) - childRefSize
	}
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
	for !n.leaf {
		idx := childIndex(n, key)
		path = append(path, step{n, idx})
		if n, err = t.load(n.children[idx]); err != nil {
			return false, err
		}
	}
	i, found := leafIndex(n, key)
	if !found {
		return false, nil
	}
	if n.vals[i].isOverflow() {
		if err := t.freeOverflow(n.vals[i].overflow); err != nil {
			return false, err
		}
	}
	n.bytes -= leafEntrySize(n.keys[i], n.vals[i])
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.dirty = true
	for _, s := range path {
		s.n.counts[s.idx]--
		s.n.dirty = true
	}
	return true, t.maybeEvict()
}

// makeValue stores value inline or spills it to overflow pages.
func (t *Tree) makeValue(value []byte) (leafValue, error) {
	if len(value) <= maxInlineValue {
		return leafValue{inline: append([]byte(nil), value...)}, nil
	}
	first, err := t.writeOverflow(value)
	if err != nil {
		return leafValue{}, err
	}
	return leafValue{overflow: first, totalLen: len(value)}, nil
}

const overflowHeader = 4 + 2 // next page, used bytes
const overflowCap = pager.PageSize - overflowHeader

func (t *Tree) writeOverflow(value []byte) (pager.PageID, error) {
	var first, prev pager.PageID
	buf := make([]byte, pager.PageSize)
	prevBuf := make([]byte, pager.PageSize)
	for off := 0; off < len(value); {
		id, err := t.pg.Allocate()
		if err != nil {
			return pager.InvalidPage, err
		}
		n := len(value) - off
		if n > overflowCap {
			n = overflowCap
		}
		for i := range buf {
			buf[i] = 0
		}
		binary.LittleEndian.PutUint16(buf[4:6], uint16(n))
		copy(buf[overflowHeader:], value[off:off+n])
		if err := t.pg.Write(id, buf); err != nil {
			return pager.InvalidPage, err
		}
		if first == pager.InvalidPage {
			first = id
		} else {
			// Patch previous page's next pointer.
			if err := t.pg.Read(prev, prevBuf); err != nil {
				return pager.InvalidPage, err
			}
			binary.LittleEndian.PutUint32(prevBuf[0:4], uint32(id))
			if err := t.pg.Write(prev, prevBuf); err != nil {
				return pager.InvalidPage, err
			}
		}
		prev = id
		off += n
	}
	return first, nil
}

func (t *Tree) readValue(v leafValue) ([]byte, error) {
	if !v.isOverflow() {
		return append([]byte(nil), v.inline...), nil
	}
	out := make([]byte, 0, v.totalLen)
	buf := make([]byte, pager.PageSize)
	for id := v.overflow; id != pager.InvalidPage; {
		if err := t.pg.Read(id, buf); err != nil {
			return nil, err
		}
		used := int(binary.LittleEndian.Uint16(buf[4:6]))
		out = append(out, buf[overflowHeader:overflowHeader+used]...)
		id = pager.PageID(binary.LittleEndian.Uint32(buf[0:4]))
	}
	if len(out) != v.totalLen {
		return nil, fmt.Errorf("btree: overflow chain length %d, want %d", len(out), v.totalLen)
	}
	return out, nil
}

func (t *Tree) freeOverflow(first pager.PageID) error {
	buf := make([]byte, pager.PageSize)
	for id := first; id != pager.InvalidPage; {
		if err := t.pg.Read(id, buf); err != nil {
			return err
		}
		next := pager.PageID(binary.LittleEndian.Uint32(buf[0:4]))
		if err := t.pg.Free(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

func insertBytesAt(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertValAt(s []leafValue, i int, v leafValue) []leafValue {
	s = append(s, leafValue{})
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertPageAt(s []pager.PageID, i int, v pager.PageID) []pager.PageID {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertCountAt(s []uint64, i int, v uint64) []uint64 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
