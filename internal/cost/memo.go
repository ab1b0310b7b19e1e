package cost

import (
	"sync"
	"sync/atomic"

	"vamana/internal/flex"
	"vamana/internal/mass"
)

// maxMemoEntries bounds one document's memo; when a generation fills up it
// is discarded wholesale (the next probes rebuild it), keeping the memory
// footprint of a long-lived serving process flat.
const maxMemoEntries = 4096

// MemoProbes caches statistics probes per document, validated against the
// per-document statistics epoch of the view each probe pins from its
// source: any update to a document bumps its epoch, which invalidates
// every memoized count for it.
// Between updates the cache is exact — VAMANA's statistics are live index
// counts, so two probes with the same arguments within one epoch must
// agree.
//
// The query-serving fast path relies on this: compiling or re-optimizing
// a query issues dozens of probes, and a cached plan's validity check is
// itself epoch-based, so steady-state serving touches the counted indexes
// not at all. MemoProbes is safe for concurrent use.
type MemoProbes struct {
	src mass.Source

	mu   sync.Mutex
	docs map[mass.DocID]*docMemo

	// Atomic so CacheStats-style readers never contend with probes.
	hits   atomic.Uint64
	misses atomic.Uint64
	resets atomic.Uint64 // epoch invalidations + full-generation discards
}

type docMemo struct {
	epoch  uint64
	counts map[probeKey]uint64
}

// probeKey identifies one probe's arguments across all probe kinds; unused
// fields stay at their zero values.
type probeKey struct {
	kind           uint8
	testType       mass.TestType
	name           string
	attr           string
	ctx            flex.Key
	lo, hi         float64
	loIncl, hiIncl bool
}

const (
	probeTest uint8 = iota
	probeText
	probeAttrValue
	probeAttrName
	probeNodes
	probeNumRange
)

// NewMemoProbes returns a memoizing statistics source over src: a store,
// whose current view each probe reads, or one view.
func NewMemoProbes(src mass.Source) *MemoProbes {
	return &MemoProbes{src: src, docs: make(map[mass.DocID]*docMemo)}
}

// Stats reports cache hits and misses since creation.
func (m *MemoProbes) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// Counters reports hits, misses and resets (memo generations discarded by
// epoch invalidation or the per-document entry cap) since creation.
func (m *MemoProbes) Counters() (hits, misses, resets uint64) {
	return m.hits.Load(), m.misses.Load(), m.resets.Load()
}

// get serves key from d's current-epoch memo, or computes it via probe
// on a view pinned from the source.
func (m *MemoProbes) get(d mass.DocID, key probeKey, probe func(*mass.View) (uint64, error)) (uint64, error) {
	if d == 0 {
		// Whole-database statistics span every document's epoch; not worth
		// the bookkeeping to invalidate, so always probe.
		return m.probe(probe)
	}
	epoch := m.src.Epoch(d)
	m.mu.Lock()
	dm := m.docs[d]
	if dm == nil || dm.epoch != epoch {
		if dm != nil {
			m.resets.Add(1)
		}
		dm = &docMemo{epoch: epoch, counts: make(map[probeKey]uint64)}
		m.docs[d] = dm
	}
	if n, ok := dm.counts[key]; ok {
		m.hits.Add(1)
		m.mu.Unlock()
		return n, nil
	}
	m.misses.Add(1)
	m.mu.Unlock()

	v, err := m.src.Pin()
	if err != nil {
		return 0, err
	}
	defer v.Unpin()
	n, err := probe(v)
	if err != nil {
		return 0, err
	}

	m.mu.Lock()
	// Re-check: an update may have advanced the epoch before the probe
	// pinned its view, in which case the result belongs to a dead
	// generation and is dropped.
	if dm := m.docs[d]; dm != nil && dm.epoch == epoch && v.Epoch(d) == epoch {
		if len(dm.counts) >= maxMemoEntries {
			m.resets.Add(1)
			dm.counts = make(map[probeKey]uint64)
		}
		dm.counts[key] = n
	}
	m.mu.Unlock()
	return n, nil
}

// probe runs probe on a view pinned from the source.
func (m *MemoProbes) probe(probe func(*mass.View) (uint64, error)) (uint64, error) {
	v, err := m.src.Pin()
	if err != nil {
		return 0, err
	}
	defer v.Unpin()
	return probe(v)
}

func (m *MemoProbes) TestCount(d mass.DocID, test mass.NodeTest, ctx flex.Key) (uint64, error) {
	key := probeKey{kind: probeTest, testType: test.Type, name: test.Name, attr: test.Attr, ctx: ctx}
	return m.get(d, key, func(v *mass.View) (uint64, error) { return v.TestCount(d, test, ctx) })
}

func (m *MemoProbes) TextCount(d mass.DocID, val string, ctx flex.Key) (uint64, error) {
	key := probeKey{kind: probeText, name: val, ctx: ctx}
	return m.get(d, key, func(v *mass.View) (uint64, error) { return v.TextCount(d, val, ctx) })
}

func (m *MemoProbes) AttrValueCount(d mass.DocID, val string, ctx flex.Key) (uint64, error) {
	key := probeKey{kind: probeAttrValue, name: val, ctx: ctx}
	return m.get(d, key, func(v *mass.View) (uint64, error) { return v.AttrValueCount(d, val, ctx) })
}

func (m *MemoProbes) CountAttrName(d mass.DocID, name string) (uint64, error) {
	key := probeKey{kind: probeAttrName, name: name}
	return m.get(d, key, func(v *mass.View) (uint64, error) { return v.CountAttrName(d, name) })
}

func (m *MemoProbes) CountNodes(d mass.DocID) (uint64, error) {
	key := probeKey{kind: probeNodes}
	return m.get(d, key, func(v *mass.View) (uint64, error) { return v.CountNodes(d) })
}

func (m *MemoProbes) NumericRangeBound(d mass.DocID, lo float64, loIncl bool, hi float64, hiIncl bool) (uint64, error) {
	key := probeKey{kind: probeNumRange, lo: lo, hi: hi, loIncl: loIncl, hiIncl: hiIncl}
	return m.get(d, key, func(v *mass.View) (uint64, error) { return v.NumericRangeBound(d, lo, loIncl, hi, hiIncl) })
}
