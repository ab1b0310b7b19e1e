package btree

import (
	"bytes"

	"vamana/internal/govern"
	"vamana/internal/pager"
)

// Cursor is one read of a tree: it iterates leaf entries in key order,
// answers point look-ups and counted ranges, and carries the read's
// state — position, limiter and counters — so that the tree itself is
// never written by a read. A cursor is positioned either on an entry or
// past either end. Cursors observe a snapshot of the leaf objects they
// traverse: a Put or Delete on the tree invalidates the entry-at-a-time
// position (Next/Prev/Key/Value are undefined until the next Seek*), but
// Seek itself is always safe — see Seek.
type Cursor struct {
	t     *Tree
	leaf  *node
	idx   int
	valid bool
	err   error
	lim   *govern.Limiter
	m     Metrics // the read's node loads, seeks and counted probes
	// mods is the tree's modification count when leaf was reached. Seek
	// resumes from leaf only while it still equals t.mods: any Put or
	// Delete since may have split or emptied the leaf, or edited a copy of
	// it that the held node does not show, so the next Seek descends from
	// the root instead.
	mods uint64
}

// SetLimiter attaches a query-governance limiter: every node load no
// decoded frame serves is charged against its page budget, which also
// carries sticky cancellation errors into seeks. A nil limiter (the
// default) means ungoverned. Seeks do not poll cancellation themselves —
// every seek site sits inside a scan loop that already ticks the same
// limiter per iteration, and a second heap RMW per seek measurably
// taxed bind-heavy plans.
func (c *Cursor) SetLimiter(l *govern.Limiter) { c.lim = l }

// TakeMetrics returns what the cursor counted since the last call — node
// loads, seeks, counted probes — and zeroes it. The counts are the
// cursor's own, so that a read of a shared tree writes nothing shared;
// its owner adds them to totals of its own. Reset keeps them.
func (c *Cursor) TakeMetrics() Metrics {
	m := c.m
	c.m = Metrics{}
	return m
}

// load reads a node on behalf of this cursor, charging the governance
// limiter for any page I/O it causes.
func (c *Cursor) load(id pager.PageID) (*node, error) { return c.t.loadFor(id, c.lim, &c.m) }

// Lookup invokes fn with the value stored under key, without copying it
// for inline values, and reports whether the key was found. It descends
// from the root and leaves the cursor's position alone. The slice passed
// to fn is owned by the tree and must not be retained or modified.
func (c *Cursor) Lookup(key []byte, fn func(v []byte)) (bool, error) {
	n, err := c.load(c.t.root)
	if err != nil {
		return false, err
	}
	for !n.leaf() {
		if n, err = c.load(n.child(childIndex(n, key))); err != nil {
			return false, err
		}
	}
	i, ok := leafIndex(n, key)
	if !ok {
		return false, nil
	}
	v, ovf, total := n.value(i)
	if ovf != pager.InvalidPage {
		if v, err = c.t.readOverflow(ovf, total); err != nil {
			return false, err
		}
	}
	fn(v)
	return true, nil
}

// Seek positions the cursor on the first entry with key >= target and
// reports whether such an entry exists.
//
// Seek is positioned: a cursor that already rests on a leaf of this tree
// (from an earlier Seek*, Next/Prev walk or ScanBatch) first tests whether
// target falls within that leaf's key range, and if so answers by
// galloping from where it stands — no node is loaded. Only a target
// outside the held leaf descends from the root. The choice is made per
// call from what the cursor observes, so a caller seeking ascending (or
// merely nearby) targets walks the leaf level once, and any other target
// sequence costs one extra pair of key comparisons per Seek. A Put or
// Delete on the tree since the leaf was reached voids the held position
// (the next Seek descends); Reset(nil) drops it explicitly.
func (c *Cursor) Seek(target []byte) bool {
	c.m.Seeks++
	c.valid, c.err = false, nil
	if n := c.leaf; n != nil && c.mods == c.t.mods {
		if nk := n.entries(); nk > 0 &&
			bytes.Compare(n.key(0), target) <= 0 && bytes.Compare(target, n.key(nk-1)) <= 0 {
			c.idx = gallop(n, c.idx, target)
			c.valid = true
			return true
		}
	}
	n, err := c.load(c.t.root)
	if err != nil {
		c.err = err
		return false
	}
	for !n.leaf() {
		if n, err = c.load(n.child(childIndex(n, target))); err != nil {
			c.err = err
			return false
		}
	}
	i, _ := leafIndex(n, target)
	c.leaf, c.idx, c.mods = n, i, c.t.mods
	return c.skipForward()
}

// gallop returns the index of the first key >= target in leaf n, given
// n.key(0) <= target <= n.key(last). It searches outward from the
// hint position in doubling strides and bisects the bracket it finds, so
// a target a few entries from the hint costs a few comparisons however
// large the leaf is.
func gallop(n *node, hint int, target []byte) int {
	last := n.entries() - 1
	if hint < 0 {
		hint = 0
	} else if hint > last {
		hint = last
	}
	// Invariant: key(lo) < target (or lo == -1) and key(hi) >= target.
	lo, hi := -1, last
	if bytes.Compare(n.key(hint), target) < 0 {
		lo = hint
		for step := 1; lo+step < hi; step <<= 1 {
			if bytes.Compare(n.key(lo+step), target) >= 0 {
				hi = lo + step
				break
			}
			lo += step
		}
	} else {
		hi = hint
		for step := 1; hi-step > lo; step <<= 1 {
			if bytes.Compare(n.key(hi-step), target) < 0 {
				lo = hi - step
				break
			}
			hi -= step
		}
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.key(mid), target) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// SeekFirst positions the cursor on the smallest entry.
func (c *Cursor) SeekFirst() bool {
	c.m.Seeks++
	c.valid, c.err = false, nil
	n, err := c.load(c.t.root)
	if err != nil {
		c.err = err
		return false
	}
	for !n.leaf() {
		if n, err = c.load(n.child(0)); err != nil {
			c.err = err
			return false
		}
	}
	c.leaf, c.idx, c.mods = n, 0, c.t.mods
	return c.skipForward()
}

// SeekLast positions the cursor on the largest entry.
func (c *Cursor) SeekLast() bool {
	c.m.Seeks++
	c.valid, c.err = false, nil
	n, err := c.load(c.t.root)
	if err != nil {
		c.err = err
		return false
	}
	for !n.leaf() {
		if n, err = c.load(n.child(n.entries() - 1)); err != nil {
			c.err = err
			return false
		}
	}
	c.leaf, c.idx, c.mods = n, n.entries()-1, c.t.mods
	return c.skipBackward()
}

// SeekBefore positions the cursor on the last entry with key < target.
func (c *Cursor) SeekBefore(target []byte) bool {
	if !c.Seek(target) {
		if c.err != nil {
			return false
		}
		// Everything is < target (or tree empty): last entry, if any.
		return c.SeekLast()
	}
	return c.Prev()
}

// Next advances to the following entry and reports whether one exists.
func (c *Cursor) Next() bool {
	if !c.valid {
		return false
	}
	c.idx++
	return c.skipForward()
}

// Prev steps to the preceding entry and reports whether one exists.
func (c *Cursor) Prev() bool {
	if !c.valid {
		return false
	}
	c.idx--
	return c.skipBackward()
}

// skipForward normalizes a position that may be past a leaf's end (or on an
// empty leaf) by walking the sibling links forward.
func (c *Cursor) skipForward() bool {
	for c.idx >= c.leaf.entries() {
		if c.leaf.next() == pager.InvalidPage {
			c.valid = false
			return false
		}
		n, err := c.load(c.leaf.next())
		if err != nil {
			c.err, c.valid = err, false
			return false
		}
		c.leaf, c.idx = n, 0
	}
	c.valid = true
	return true
}

func (c *Cursor) skipBackward() bool {
	for c.idx < 0 {
		if c.leaf.prev() == pager.InvalidPage {
			c.valid = false
			return false
		}
		n, err := c.load(c.leaf.prev())
		if err != nil {
			c.err, c.valid = err, false
			return false
		}
		c.leaf, c.idx = n, n.entries()-1
	}
	c.valid = true
	return true
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid }

// Err returns the first error the cursor encountered — I/O from the pager
// or a governance trip from the attached limiter.
func (c *Cursor) Err() error { return c.err }

// Key returns the current entry's key. The slice is a view of the tree's
// page, valid until the tree is next mutated; do not modify it.
func (c *Cursor) Key() []byte {
	if !c.valid {
		return nil
	}
	return c.leaf.key(c.idx)
}

// Value returns a copy of the current entry's value (materializing
// overflow chains).
func (c *Cursor) Value() ([]byte, error) {
	if !c.valid {
		return nil, nil
	}
	v, ovf, total := c.leaf.value(c.idx)
	if ovf != pager.InvalidPage {
		return c.t.readOverflow(ovf, total)
	}
	return append([]byte(nil), v...), nil
}

// ValueView returns the current entry's value without copying when it is
// stored inline (overflow chains are still materialized). The slice is
// owned by the tree and valid only until the cursor moves or the tree is
// mutated; callers must not retain or modify it.
func (c *Cursor) ValueView() ([]byte, error) {
	if !c.valid {
		return nil, nil
	}
	v, ovf, total := c.leaf.value(c.idx)
	if ovf != pager.InvalidPage {
		return c.t.readOverflow(ovf, total)
	}
	return v, nil
}

// ScanBatch bulk-advances the cursor: starting at the current entry it
// visits consecutive entries in key order while key < hi (nil hi means
// unbounded), calling visit for each, until visit returns false or the
// range is exhausted. Entries within one leaf are visited in a tight
// loop; page access (and governance page charging, via the cursor's
// limiter) happens only when crossing to the next leaf — this is the
// bulk-advance API batched execution pulls through, replacing one
// Next/Key/ValueView re-entry per entry. v is nil unless needValue
// (inline values are passed as tree-owned views; overflow chains are
// materialized). Key and value slices are valid only for the duration of
// the visit call.
//
// After every visit the cursor has logically advanced past that entry: a
// subsequent ScanBatch continues with the following entry. Do not mix
// ScanBatch with the entry-at-a-time methods (Next/Key/ValueView) on one
// scan — their positioning protocols differ (they rest ON the last
// entry; ScanBatch rests after it). The return value reports whether
// entries may remain: false once the range is exhausted or the cursor
// failed (check Err).
func (c *Cursor) ScanBatch(hi []byte, needValue bool, visit func(k, v []byte) bool) bool {
	if !c.valid {
		return false
	}
	for {
		leaf := c.leaf
		nk := leaf.entries()
		// One range check per leaf: when the leaf's last key is already
		// below hi, every entry in it is in range and the per-entry
		// compare is skipped for the whole leaf.
		wholeLeaf := hi == nil || (nk > 0 && bytes.Compare(leaf.key(nk-1), hi) < 0)
		for c.idx < nk {
			k, voff := leaf.keyAt(int(leaf.slots[c.idx]))
			if !wholeLeaf && bytes.Compare(k, hi) >= 0 {
				return false
			}
			var v []byte
			if needValue {
				inline, ovf, total := leaf.valueAt(voff)
				if ovf != pager.InvalidPage {
					var err error
					if v, err = c.t.readOverflow(ovf, total); err != nil {
						c.err, c.valid = err, false
						return false
					}
				} else {
					v = inline
				}
			}
			c.idx++
			if !visit(k, v) {
				return true
			}
		}
		if leaf.next() == pager.InvalidPage {
			c.valid = false
			return false
		}
		n, err := c.load(leaf.next())
		if err != nil {
			c.err, c.valid = err, false
			return false
		}
		c.leaf, c.idx = n, 0
	}
}

// InRange reports whether the cursor is valid and its key is < hi (hi nil
// means unbounded). A convenience for half-open range scans.
func (c *Cursor) InRange(hi []byte) bool {
	return c.valid && (hi == nil || bytes.Compare(c.leaf.key(c.idx), hi) < 0)
}

// NewCursor returns an unpositioned cursor; call one of the Seek methods.
func (t *Tree) NewCursor() *Cursor { return &Cursor{t: t} }

// Reset re-targets c at tree t for a new scan, clearing the entry position,
// error and limiter, so one cursor allocation can be reused across many
// scans. Callers that govern the new scan must SetLimiter again after
// Reset — clearing here keeps a pooled cursor from charging a previous
// query's budget. The cursor's counts stay. When c already
// walks t (one axis scan per context tuple over the same index) the leaf
// it rests on is kept, so the next Seek can resume from it; any other
// tree starts from a root descent. Reset(nil) parks the cursor: it
// references no tree or node until the next Reset.
func (c *Cursor) Reset(t *Tree) {
	if c.t != t {
		*c = Cursor{t: t, m: c.m}
		return
	}
	c.valid, c.err, c.lim = false, nil, nil
}
