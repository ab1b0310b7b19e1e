package btree

// Rank returns the number of entries with key strictly less than target.
// It runs in O(log n) page visits using the subtree counts stored in
// branch entries; no leaf between the tree edges and the target is read.
func (t *Tree) Rank(target []byte) (uint64, error) {
	n, err := t.load(t.root)
	if err != nil {
		return 0, err
	}
	var rank uint64
	for !n.leaf() {
		idx := childIndex(n, target)
		for i := 0; i < idx; i++ {
			rank += n.count(i)
		}
		if n, err = t.load(n.child(idx)); err != nil {
			return 0, err
		}
	}
	i, _ := leafIndex(n, target)
	return rank + uint64(i), nil
}

// Count returns the number of entries with lo <= key < hi. A nil lo means
// unbounded below; a nil hi means unbounded above. This is the statistics
// primitive VAMANA's cost estimator calls (COUNT and TC probes): it costs
// two root-to-leaf descents regardless of how many entries lie in the
// range.
func (t *Tree) Count(lo, hi []byte) (uint64, error) {
	t.m.Counts++
	var lower uint64
	var err error
	if lo != nil {
		if lower, err = t.Rank(lo); err != nil {
			return 0, err
		}
	}
	var upper uint64
	if hi == nil {
		if upper, err = t.Len(); err != nil {
			return 0, err
		}
	} else {
		if upper, err = t.Rank(hi); err != nil {
			return 0, err
		}
	}
	if upper < lower {
		return 0, nil
	}
	return upper - lower, nil
}
