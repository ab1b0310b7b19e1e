package mass

import (
	"vamana/internal/btree"
	"vamana/internal/flex"
)

// The statistics primitives below are what the paper means by "gathering
// accurate statistics about the XML data from the underlying storage
// structure MASS, directly" (§I contribution 2). Each is one or two
// counted-B+-tree range counts: O(log n), no data pages touched, and
// always exact and current — there is no histogram to maintain under
// updates.

// count is one statistics probe: the counted range [lo, hi) of tree t.
func (v *View) count(t *btree.Tree, lo, hi []byte) (uint64, error) {
	c := cursorOn(t)
	n, err := c.Count(lo, hi)
	tl := Tally{StatProbes: 1}
	tl.fold(&c)
	v.Add(&tl)
	return n, err
}

// CountName returns the number of elements named name. d == 0 counts
// across every document in the store (database-wide statistics, §I).
func (v *View) CountName(d DocID, name string) (uint64, error) {
	return v.CountNameWithin(d, name, "")
}

// CountNameWithin restricts CountName to the subtree rooted at ctx
// (inclusive bounds handled by the caller semantics: the count covers
// descendants-or-self of ctx). Empty ctx means the whole document.
func (v *View) CountNameWithin(d DocID, name string, ctx flex.Key) (uint64, error) {
	var lo, hi []byte
	if ctx == "" {
		lo, hi = nameRange(name, d, "", "")
	} else {
		lo, hi = nameRange(name, d, ctx, ctx.SubtreeUpper())
	}
	return v.count(v.names, lo, hi)
}

// CountElements returns the number of element nodes in d (ctx == "" for
// the whole document, otherwise the subtree of ctx).
func (v *View) CountElements(d DocID, ctx flex.Key) (uint64, error) {
	klo, khi := subtreeBounds(ctx)
	lo, hi := docKeyRange(d, klo, khi)
	return v.count(v.elems, lo, hi)
}

// CountTexts returns the number of text nodes in d (or ctx's subtree).
func (v *View) CountTexts(d DocID, ctx flex.Key) (uint64, error) {
	klo, khi := subtreeBounds(ctx)
	lo, hi := docKeyRange(d, klo, khi)
	return v.count(v.texts, lo, hi)
}

// CountNodes returns the total number of stored nodes in d (all kinds,
// including attributes and the document node).
func (v *View) CountNodes(d DocID) (uint64, error) {
	lo, hi := clusteredDocRange(d)
	return v.count(v.clustered, lo, hi)
}

// CountAttrName returns the number of attributes named name in d
// (d == 0: all documents).
func (v *View) CountAttrName(d DocID, name string) (uint64, error) {
	lo, hi := nameRange(name, d, "", "")
	return v.count(v.attrs, lo, hi)
}

// TextCount returns TC(v): the number of text nodes whose value is v, in
// document d (0 = all documents), optionally restricted to ctx's subtree.
// For values longer than the indexed prefix the count is an upper bound
// (the exact set is produced by the value:: scan's verification step), which is
// the safe direction for the cost model's output estimates.
func (v *View) TextCount(d DocID, val string, ctx flex.Key) (uint64, error) {
	var lo, hi []byte
	if ctx == "" {
		lo, hi = valueRange(valueTagText, val, d, "", "")
	} else {
		lo, hi = valueRange(valueTagText, val, d, ctx, ctx.SubtreeUpper())
	}
	return v.count(v.values, lo, hi)
}

// AttrValueCount is TextCount for attribute values.
func (v *View) AttrValueCount(d DocID, val string, ctx flex.Key) (uint64, error) {
	var lo, hi []byte
	if ctx == "" {
		lo, hi = valueRange(valueTagAttr, val, d, "", "")
	} else {
		lo, hi = valueRange(valueTagAttr, val, d, ctx, ctx.SubtreeUpper())
	}
	return v.count(v.values, lo, hi)
}

// TestCount returns COUNT(test): the number of nodes in d satisfying the
// node test, independent of axis — the quantity the paper's cost model
// gathers per step operator (§VI-B item 1). ctx restricts the count to a
// subtree ("or even a specific point within one XML document", §I).
func (v *View) TestCount(d DocID, test NodeTest, ctx flex.Key) (uint64, error) {
	switch test.Type {
	case TestName:
		return v.CountNameWithin(d, test.Name, ctx)
	case TestWildcard:
		return v.CountElements(d, ctx)
	case TestText:
		return v.CountTexts(d, ctx)
	default:
		// node(), comment(), PI: fall back to the clustered count, an
		// upper bound for the latter two (exactness matters only for the
		// common name/wildcard/text cases the optimizer reasons about).
		klo, khi := subtreeBounds(ctx)
		lo, hi := docKeyRange(d, klo, khi)
		return v.count(v.clustered, lo, hi)
	}
}

// StorageStats reports physical storage statistics ("number of tuples per
// page, number of pages, etc.", §IV-B).
type StorageStats struct {
	Pages     int    // total pages in the pager, all indexes
	Nodes     uint64 // clustered index entries
	Elements  uint64
	Texts     uint64
	InMemory  bool
	Documents int
}

// Stats returns storage statistics for the whole view.
func (v *View) Stats() (StorageStats, error) {
	st := StorageStats{Pages: v.st.pg.NumPages(), InMemory: v.pg.InMemory(), Documents: len(v.docs)}
	var err error
	for _, f := range []struct {
		t *btree.Tree
		n *uint64
	}{{v.clustered, &st.Nodes}, {v.elems, &st.Elements}, {v.texts, &st.Texts}} {
		c := cursorOn(f.t)
		*f.n, err = c.Len()
		v.addCursor(&c)
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// subtreeBounds converts a context key to subtree [lo, hi) FLEX bounds
// (whole document when ctx is empty).
func subtreeBounds(ctx flex.Key) (flex.Key, flex.Key) {
	if ctx == "" {
		return "", ""
	}
	return ctx, ctx.SubtreeUpper()
}
