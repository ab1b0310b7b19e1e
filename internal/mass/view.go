package mass

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"vamana/internal/btree"
	"vamana/internal/flex"
	"vamana/internal/obs"
	"vamana/internal/pager"
	"vamana/internal/xmldoc"
)

// A View is one committed version of the store, and every read runs on
// one. It is immutable: the pinned pager view, one read-only tree per
// index (a root over those pages), the document catalog and the
// statistics epochs of that version. A read on a view takes no lock of
// this package, and any number of goroutines read one view at once.
// What a read changes — cursor positions, key scratch, its Tally — it
// owns.
//
// The store publishes a new view at every commit, load and drop, and
// holds one pin on its current view. A reader pins the view it reads
// (Store.Pin, or View.Pin on a view it already holds) and unpins it when
// done; the last unpin of a view the store has replaced releases its
// pages. A pinned view reads its version whatever the writer commits
// meanwhile.
type View struct {
	st *Store
	pg *pager.View
	trees
	docs   map[string]DocID
	epochs map[DocID]uint64
	refs   atomic.Int64
}

// trees is the set of index trees of one version of the store.
type trees struct {
	clustered *btree.Tree // docID ++ flexKey -> node record
	names     *btree.Tree // element name index
	attrs     *btree.Tree // attribute name index
	elems     *btree.Tree // docID ++ flexKey -> element name (wildcard scans/counts)
	texts     *btree.Tree // docID ++ flexKey -> nil (text() scans/counts)
	values    *btree.Tree // value index over text nodes and attribute values
}

// slots names the trees for the catalog.
func (ts *trees) slots() map[string]**btree.Tree {
	return map[string]**btree.Tree{
		"clustered": &ts.clustered,
		"names":     &ts.names,
		"attrs":     &ts.attrs,
		"elems":     &ts.elems,
		"texts":     &ts.texts,
		"values":    &ts.values,
	}
}

// ErrReleased is returned when pinning a view that is no longer
// readable: its last pin was dropped.
var ErrReleased = errors.New("mass: view released")

// ErrDocumentBusy is returned by DropDocument while a stream or a
// snapshot pins a view that holds the document.
var ErrDocumentBusy = errors.New("mass: document is busy")

// Source is what a read pins its view from: a Store (its current view)
// or a View already held (itself). Epoch is the statistics epoch of the
// view a Pin would return now.
type Source interface {
	Pin() (*View, error)
	Epoch(d DocID) uint64
}

// Pin adds a pin to v and returns it, or ErrReleased once v's last pin
// is gone. Each successful Pin is paired with an Unpin.
func (v *View) Pin() (*View, error) {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return nil, ErrReleased
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return v, nil
		}
	}
}

// Unpin drops one pin; the last releases the view's pager pin, so that
// the page versions only it could see are reclaimed.
func (v *View) Unpin() {
	if v.refs.Add(-1) == 0 {
		v.pg.Close()
	}
}

// Version returns the pager version epoch the view pins. Versions grow
// with every publication, so two views compare by recency.
func (v *View) Version() uint64 { return v.pg.Epoch() }

// Tally is the storage work of one read: B+-tree node loads, seeks and
// counted probes, records decoded and statistics probes. A read counts
// into a Tally of its own and adds it to the store's totals once, when
// it finishes (View.Add): a query run at its end, a point read at its
// return.
type Tally struct {
	Index          btree.Metrics
	RecordsDecoded uint64
	StatProbes     uint64
}

// counters are a store's totals: striped atomics every finished read
// adds its Tally to, and StoreMetrics reads.
type counters struct {
	hits, misses, seeks, counts, splits, records, probes obs.Counter
}

func (c *counters) add(t *Tally) {
	for _, f := range [...]struct {
		c *obs.Counter
		n *uint64
	}{
		{&c.hits, &t.Index.CacheHits}, {&c.misses, &t.Index.CacheMisses}, {&c.seeks, &t.Index.Seeks},
		{&c.counts, &t.Index.Counts}, {&c.splits, &t.Index.Splits},
		{&c.records, &t.RecordsDecoded}, {&c.probes, &t.StatProbes},
	} {
		if *f.n != 0 {
			f.c.Add(*f.n)
			*f.n = 0
		}
	}
}

// Add adds a finished read's tally to the totals of v's store
// (Store.Metrics) and zeroes it.
func (v *View) Add(t *Tally) { v.st.ctr.add(t) }

// addCursor adds what one read's cursor counted to the store's totals.
func (v *View) addCursor(c *btree.Cursor) {
	var t Tally
	t.fold(c)
	v.Add(&t)
}

// fold adds what cursor c counted to t (nil: drops it).
func (t *Tally) fold(c *btree.Cursor) {
	m := c.TakeMetrics()
	if t != nil {
		t.Index.Add(m)
	}
}

// cursorOn returns a cursor on t for one read.
func cursorOn(t *btree.Tree) btree.Cursor {
	var c btree.Cursor
	c.Reset(t)
	return c
}

// Epoch returns the document's statistics epoch in this view. Any
// mutation of the document bumps it, so an epoch captured alongside
// cached document-derived state (an optimized plan, a memoized COUNT
// probe) detects staleness with one comparison. Epochs are in-memory
// only: a reopened store starts at epoch 0 with empty caches, which is
// trivially consistent.
func (v *View) Epoch(d DocID) uint64 { return v.epochs[d] }

// DocID resolves a document name.
func (v *View) DocID(name string) (DocID, bool) {
	d, ok := v.docs[name]
	return d, ok
}

// DocName resolves a document id back to its name, empty when unknown.
// Documents are few (one catalog entry each), so a linear sweep beats
// maintaining a reverse map; callers are trace/log paths, not hot ones.
func (v *View) DocName(d DocID) string {
	for n, id := range v.docs {
		if id == d {
			return n
		}
	}
	return ""
}

// Documents returns the view's document names, sorted.
func (v *View) Documents() []string {
	out := make([]string, 0, len(v.docs))
	for n := range v.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Node fetches the node stored under (d, k).
func (v *View) Node(d DocID, k flex.Key) (xmldoc.Node, bool, error) {
	var t Tally
	n, ok, err := nodeAt(v.clustered, &t, d, k)
	v.Add(&t)
	return n, ok, err
}

// nodeAt reads the node stored under (d, k) in clustered tree ct,
// counting into t: a one-shot Fetcher.
func nodeAt(ct *btree.Tree, t *Tally, d DocID, k flex.Key) (xmldoc.Node, bool, error) {
	var f Fetcher
	f.cur.Reset(ct)
	var buf [64]byte
	return f.read(t, appendClusteredKey(buf[:0], d, k), k)
}

// A Fetcher reads nodes of one view by key through one positioned cursor
// on the clustered index. Keys that ascend, as a run's results in
// document order do, walk the leaf level once: each Seek gallops inside
// the leaf the cursor holds and descends from the root only for a key
// outside it, which is also how keys out of order (a reverse axis) are
// served. A result whose name is the previous result's reuses that
// string, so a step's elements cost no allocation; a value is one string.
//
// A Fetcher reads the view it was last Reset to, which its owner keeps
// pinned; Reset(nil) drops that view's tree and the held leaf. It is not
// safe for concurrent use.
type Fetcher struct {
	cur  btree.Cursor
	key  []byte
	last string
}

// Reset points f at v's clustered index (nil: parks it, holding no tree
// or leaf). A cursor already on v keeps its leaf.
func (f *Fetcher) Reset(v *View) {
	if v == nil {
		f.cur.Reset(nil)
		return
	}
	f.cur.Reset(v.clustered)
}

// Node reads the node stored under (d, k), counting the record and the
// cursor's node loads into t.
func (f *Fetcher) Node(t *Tally, d DocID, k flex.Key) (xmldoc.Node, bool, error) {
	f.key = appendClusteredKey(f.key[:0], d, k)
	return f.read(t, f.key, k)
}

// read reads the node of key k, stored under clustered key key.
func (f *Fetcher) read(t *Tally, key []byte, k flex.Key) (xmldoc.Node, bool, error) {
	t.RecordsDecoded++
	r, ok, err := seekRecord(&f.cur, key)
	t.fold(&f.cur)
	if err != nil || !ok {
		return xmldoc.Node{}, false, err
	}
	if string(r.name) != f.last {
		f.last = string(r.name)
	}
	return xmldoc.Node{Kind: r.kind, Key: k, Name: f.last, Value: string(r.value)}, true, nil
}

// StringValue computes the XPath string-value of the node at (d, k): for
// text/attribute/comment/PI nodes their content; for element and document
// nodes the concatenation of all descendant text nodes in document order.
func (v *View) StringValue(d DocID, k flex.Key) (string, error) {
	var t Tally
	s, err := v.stringValue(&t, d, k)
	v.Add(&t)
	return s, err
}

// stringValue reads the node's record and, for an element or the
// document, walks its subtree's clustered range forward with the same
// cursor, appending the value of each text record: one descent, then a
// leaf-level walk. The node and each text record count as decoded.
func (v *View) stringValue(t *Tally, d DocID, k flex.Key) (string, error) {
	c := cursorOn(v.clustered)
	defer t.fold(&c)
	var buf [64]byte
	t.RecordsDecoded++
	r, ok, err := seekRecord(&c, appendClusteredKey(buf[:0], d, k))
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("mass: no node at %q", k)
	}
	if r.kind != xmldoc.KindElement && r.kind != xmldoc.KindDocument {
		return string(r.value), nil
	}
	hi := appendClusteredKey(nil, d, k.SubtreeUpper())
	var out []byte
	for c.Next() && c.InRange(hi) {
		if r, err = viewRecord(&c); err != nil {
			return "", err
		}
		if r.kind == xmldoc.KindText {
			t.RecordsDecoded++
			out = append(out, r.value...)
		}
	}
	if err := c.Err(); err != nil {
		return "", err
	}
	return string(out), nil
}

// seekRecord positions c on key and parses its record in place; false
// when no record is stored under exactly key. c stays on the record, so a
// caller can walk on from it.
func seekRecord(c *btree.Cursor, key []byte) (record, bool, error) {
	if !c.Seek(key) || !bytes.Equal(c.Key(), key) {
		return record{}, false, c.Err()
	}
	r, err := viewRecord(c)
	return r, err == nil, err
}

// viewRecord parses the record c is positioned on, in place.
func viewRecord(c *btree.Cursor) (record, error) {
	v, err := c.ValueView()
	if err != nil {
		return record{}, err
	}
	return parseRecord(v)
}
