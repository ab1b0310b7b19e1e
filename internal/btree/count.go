package btree

// Rank returns the number of entries with key strictly less than target.
// It runs in O(log n) page visits using the subtree counts stored in
// branch entries; no leaf between the tree edges and the target is read.
func (c *Cursor) Rank(target []byte) (uint64, error) {
	n, err := c.load(c.t.root)
	if err != nil {
		return 0, err
	}
	var rank uint64
	for !n.leaf() {
		idx := childIndex(n, target)
		for i := 0; i < idx; i++ {
			rank += n.count(i)
		}
		if n, err = c.load(n.child(idx)); err != nil {
			return 0, err
		}
	}
	i, _ := leafIndex(n, target)
	return rank + uint64(i), nil
}

// Len returns the total number of entries: the root's subtree count.
func (c *Cursor) Len() (uint64, error) {
	r, err := c.load(c.t.root)
	if err != nil {
		return 0, err
	}
	return r.subtreeCount(), nil
}

// Count returns the number of entries with lo <= key < hi. A nil lo means
// unbounded below; a nil hi means unbounded above. This is the statistics
// primitive VAMANA's cost estimator calls (COUNT and TC probes): it costs
// two root-to-leaf descents regardless of how many entries lie in the
// range. It leaves the cursor's position alone.
func (c *Cursor) Count(lo, hi []byte) (uint64, error) {
	c.m.Counts++
	var lower uint64
	var err error
	if lo != nil {
		if lower, err = c.Rank(lo); err != nil {
			return 0, err
		}
	}
	var upper uint64
	if hi == nil {
		upper, err = c.Len()
	} else {
		upper, err = c.Rank(hi)
	}
	if err != nil || upper < lower {
		return 0, err
	}
	return upper - lower, nil
}

// Count is Cursor.Count on a fresh cursor, counted in the tree's own
// Metrics.
func (t *Tree) Count(lo, hi []byte) (uint64, error) {
	c := Cursor{t: t}
	defer t.count(&c)
	return c.Count(lo, hi)
}
