package mass

import (
	"vamana/internal/flex"
)

// The statistics primitives below are what the paper means by "gathering
// accurate statistics about the XML data from the underlying storage
// structure MASS, directly" (§I contribution 2). Each is one or two
// counted-B+-tree range counts: O(log n), no data pages touched, and
// always exact and current — there is no histogram to maintain under
// updates.

// CountName returns the number of elements named name. d == 0 counts
// across every document in the store (database-wide statistics, §I).
func (s *Store) CountName(d DocID, name string) (uint64, error) {
	return s.CountNameWithin(d, name, "")
}

// CountNameWithin restricts CountName to the subtree rooted at ctx
// (inclusive bounds handled by the caller semantics: the count covers
// descendants-or-self of ctx). Empty ctx means the whole document.
func (s *Store) CountNameWithin(d DocID, name string, ctx flex.Key) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statProbes++
	var lo, hi []byte
	if ctx == "" {
		lo, hi = nameRange(name, d, "", "")
	} else {
		lo, hi = nameRange(name, d, ctx, ctx.SubtreeUpper())
	}
	return s.names.Count(lo, hi)
}

// CountElements returns the number of element nodes in d (ctx == "" for
// the whole document, otherwise the subtree of ctx).
func (s *Store) CountElements(d DocID, ctx flex.Key) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statProbes++
	klo, khi := subtreeBounds(ctx)
	lo, hi := docKeyRange(d, klo, khi)
	return s.elems.Count(lo, hi)
}

// CountTexts returns the number of text nodes in d (or ctx's subtree).
func (s *Store) CountTexts(d DocID, ctx flex.Key) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statProbes++
	klo, khi := subtreeBounds(ctx)
	lo, hi := docKeyRange(d, klo, khi)
	return s.texts.Count(lo, hi)
}

// CountNodes returns the total number of stored nodes in d (all kinds,
// including attributes and the document node).
func (s *Store) CountNodes(d DocID) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statProbes++
	lo, hi := clusteredDocRange(d)
	return s.clustered.Count(lo, hi)
}

// CountAttrName returns the number of attributes named name in d
// (d == 0: all documents).
func (s *Store) CountAttrName(d DocID, name string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statProbes++
	lo, hi := nameRange(name, d, "", "")
	return s.attrs.Count(lo, hi)
}

// TextCount returns TC(v): the number of text nodes whose value is v, in
// document d (0 = all documents), optionally restricted to ctx's subtree.
// For values longer than the indexed prefix the count is an upper bound
// (the exact set is produced by the value:: scan's verification step), which is
// the safe direction for the cost model's output estimates.
func (s *Store) TextCount(d DocID, v string, ctx flex.Key) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statProbes++
	var lo, hi []byte
	if ctx == "" {
		lo, hi = valueRange(valueTagText, v, d, "", "")
	} else {
		lo, hi = valueRange(valueTagText, v, d, ctx, ctx.SubtreeUpper())
	}
	return s.values.Count(lo, hi)
}

// AttrValueCount is TextCount for attribute values.
func (s *Store) AttrValueCount(d DocID, v string, ctx flex.Key) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statProbes++
	var lo, hi []byte
	if ctx == "" {
		lo, hi = valueRange(valueTagAttr, v, d, "", "")
	} else {
		lo, hi = valueRange(valueTagAttr, v, d, ctx, ctx.SubtreeUpper())
	}
	return s.values.Count(lo, hi)
}

// TestCount returns COUNT(test): the number of nodes in d satisfying the
// node test, independent of axis — the quantity the paper's cost model
// gathers per step operator (§VI-B item 1). ctx restricts the count to a
// subtree ("or even a specific point within one XML document", §I).
func (s *Store) TestCount(d DocID, test NodeTest, ctx flex.Key) (uint64, error) {
	switch test.Type {
	case TestName:
		return s.CountNameWithin(d, test.Name, ctx)
	case TestWildcard:
		return s.CountElements(d, ctx)
	case TestText:
		return s.CountTexts(d, ctx)
	default:
		// node(), comment(), PI: fall back to the clustered count, an
		// upper bound for the latter two (exactness matters only for the
		// common name/wildcard/text cases the optimizer reasons about).
		s.mu.Lock()
		defer s.mu.Unlock()
		s.statProbes++
		klo, khi := subtreeBounds(ctx)
		lo, hi := docKeyRange(d, klo, khi)
		return s.clustered.Count(lo, hi)
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

// Stats returns storage statistics for the whole store.
func (s *Store) Stats() (StorageStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st StorageStats
	st.Pages = s.pg.NumPages()
	st.InMemory = s.pg.InMemory()
	st.Documents = len(s.docs)
	var err error
	if st.Nodes, err = s.clustered.Len(); err != nil {
		return st, err
	}
	if st.Elements, err = s.elems.Len(); err != nil {
		return st, err
	}
	if st.Texts, err = s.texts.Len(); err != nil {
		return st, err
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
