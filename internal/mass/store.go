// Package mass implements the Multi-Axis Storage Structure (MASS) that
// VAMANA is built around (Deschler & Rundensteiner, CIKM 2003). MASS
// stores shredded XML documents in a clustered index ordered by FLEX key
// (= document order) plus secondary indexes over element names, attribute
// names and node values. Together these provide:
//
//   - index-based access for every XPath axis from any context node,
//   - value-based lookups in a single index probe, and
//   - O(log n) counting of axis- and value-based node sets without
//     fetching any data — the statistics feed for VAMANA's cost model.
//
// A Store has one writer and any number of readers. Reads run on
// immutable Views (view.go) and take no lock of this package; writers —
// an Update transaction, a document load or drop, a flush — take the
// store's writer lock in turn, and each publishes its result as the next
// View.
package mass

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"vamana/internal/btree"
	"vamana/internal/flex"
	"vamana/internal/pager"
	"vamana/internal/xmldoc"
)

// Store is a MASS database: a set of indexed XML documents. It is the
// writer, plus the current View it last published.
type Store struct {
	// writer serializes writers: an Update holds it from Begin to
	// Commit/Rollback; document loads, drops and flushes hold it for
	// their span. Readers never touch it. Everything below up to cur is
	// the writer's, guarded by writer.
	writer sync.Mutex
	pg     *pager.Pager

	// The writer's trees: the last published version plus an open
	// transaction's edits, which no reader sees until Commit publishes
	// them.
	catalog *btree.Tree // persistent metadata: tree roots, document registry
	trees

	docs    map[string]DocID
	nextDoc DocID
	// epochs tracks a per-document statistics epoch, bumped by every
	// mutation of that document (load, insert, update, delete, drop). A
	// View carries the epochs of its version (View.Epoch).
	epochs map[DocID]uint64
	// changed records a mutation since the last publication.
	changed bool
	// wt is the writer's own read work, added to ctr at publication.
	wt Tally
	// views lists the published views that may still be pinned, the
	// current one last; each publication drops the released ones.
	// DropDocument counts their pins.
	views []*View

	// cur is the current view: the latest committed version, holding one
	// pin of the store's own. Readers load and pin it.
	cur atomic.Pointer[View]
	// ctr sums the work of finished reads and of the writer.
	ctr counters

	// syncMu serializes durable group commits; syncedEpoch is the newest
	// pager version epoch known durable (both file-backed stores only).
	syncMu      sync.Mutex
	syncedEpoch uint64
}

// StoreMetrics is a snapshot of the store's storage-level activity:
// pager I/O, B+-tree node loads aggregated across all seven index trees
// (with the pager's frame evictions as Index.CacheEvictions), clustered
// records decoded, and statistics probes that reached storage.
type StoreMetrics struct {
	Pager          pager.Metrics
	Index          btree.Metrics
	RecordsDecoded uint64
	StatProbes     uint64
}

// Metrics returns a snapshot of the store's storage counters: the work
// of every finished read, whatever view it ran on, and of every
// publication's writer.
func (s *Store) Metrics() StoreMetrics {
	c := &s.ctr
	m := StoreMetrics{
		Index: btree.Metrics{
			CacheHits: c.hits.Value(), CacheMisses: c.misses.Value(), Seeks: c.seeks.Value(),
			Counts: c.counts.Value(), Splits: c.splits.Value(),
		},
		RecordsDecoded: c.records.Value(),
		StatProbes:     c.probes.Value(),
	}
	m.Pager = s.pg.Metrics()
	m.Index.CacheEvictions = m.Pager.Evictions
	return m
}

// Options configures a Store.
type Options struct {
	// Path is the backing page file. Empty means an in-memory store.
	Path string
	// CachePages bounds the clean index pages a file-backed store keeps
	// in memory: one cache of 8 KiB page images in the pager, each with
	// its decoded B+-tree node, shared by the live trees and every
	// snapshot. 0 means the default (6,144 pages, about 50 MB). Lower it
	// for memory-constrained deployments; raise it for hot stores.
	// Pages written but not yet durable stay in memory until Flush
	// regardless. In-memory stores hold every page once.
	CachePages int
	// Backend, when non-nil, overrides Path as the storage to open the
	// pager over (used by tests to inject faults below the pager).
	Backend pager.Backend
}

// ErrNoDoc is returned when an operation names a document that is not
// loaded in the store.
var ErrNoDoc = errors.New("mass: unknown document")

// Open creates or reopens a store.
func Open(opts Options) (*Store, error) {
	var pg *pager.Pager
	var err error
	switch {
	case opts.Backend != nil:
		pg, err = pager.OpenBackend(opts.Backend)
	case opts.Path == "":
		pg = pager.NewMemory()
	default:
		pg, err = pager.Open(opts.Path)
	}
	if err != nil {
		return nil, err
	}
	pg.SetCachePages(opts.CachePages)
	s := &Store{
		pg:      pg,
		docs:    make(map[string]DocID),
		epochs:  make(map[DocID]uint64),
		nextDoc: 1,
	}
	meta := pg.UserMeta()
	catalogRoot := pager.PageID(binary.LittleEndian.Uint32(meta[:4]))
	if catalogRoot == pager.InvalidPage {
		if err = s.initTrees(); err == nil {
			s.changed = true
			err = s.publishLocked()
		}
	} else if err = s.loadCatalog(catalogRoot); err == nil {
		// The catalog is the committed version: publish it as it is.
		err = s.installLocked()
	}
	if err != nil {
		pg.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) initTrees() error {
	var err error
	newTree := func() *btree.Tree {
		if err != nil {
			return nil
		}
		var t *btree.Tree
		t, err = btree.New(s.pg)
		return t
	}
	s.catalog = newTree()
	s.clustered = newTree()
	s.names = newTree()
	s.attrs = newTree()
	s.elems = newTree()
	s.texts = newTree()
	s.values = newTree()
	return err
}

// catalog key prefixes.
const (
	catTree = "T" // catTree + name -> root page id (u32)
	catDoc  = "D" // catDoc + docName -> docID (u32)
	catSeq  = "S" // next document id (u32)
)

func (s *Store) loadCatalog(root pager.PageID) error {
	var err error
	s.catalog, err = btree.Load(s.pg, root)
	if err != nil {
		return fmt.Errorf("mass: load catalog: %w", err)
	}
	for name, slot := range s.slots() {
		v, ok, err := s.catalog.Get([]byte(catTree + name))
		if err != nil {
			return err
		}
		if !ok || len(v) != 4 {
			return fmt.Errorf("mass: catalog missing tree %q", name)
		}
		t, err := btree.Load(s.pg, pager.PageID(binary.LittleEndian.Uint32(v)))
		if err != nil {
			return fmt.Errorf("mass: load tree %q: %w", name, err)
		}
		*slot = t
	}
	if v, ok, err := s.catalog.Get([]byte(catSeq)); err != nil {
		return err
	} else if ok && len(v) == 4 {
		s.nextDoc = DocID(binary.LittleEndian.Uint32(v))
	}
	// Restore the document registry.
	c := s.catalog.NewCursor()
	for ok := c.Seek([]byte(catDoc)); ok && len(c.Key()) > 0 && c.Key()[0] == catDoc[0]; ok = c.Next() {
		v, err := c.Value()
		if err != nil {
			return err
		}
		if len(v) == 4 {
			s.docs[string(c.Key()[1:])] = DocID(binary.LittleEndian.Uint32(v))
		}
	}
	return c.Err()
}

// Flush persists all index pages and the catalog.
func (s *Store) Flush() error {
	s.writer.Lock()
	defer s.writer.Unlock()
	return s.flushLocked()
}

// publishLocked flushes every tree's dirty nodes to the pager, records
// the tree roots in the catalog, commits the batch as the next pager
// version, and publishes that version as the current View — the point
// at which new readers see it. A no-op when nothing changed since the
// last publication; durability is separate (flushLocked, SyncCommitted).
func (s *Store) publishLocked() error {
	if !s.changed {
		return nil
	}
	for name, slot := range s.slots() {
		t := *slot
		if err := t.Flush(); err != nil {
			return err
		}
		var v [4]byte
		binary.LittleEndian.PutUint32(v[:], uint32(t.Root()))
		if err := s.catalogPutIfChanged([]byte(catTree+name), v[:]); err != nil {
			return err
		}
	}
	var seq [4]byte
	binary.LittleEndian.PutUint32(seq[:], uint32(s.nextDoc))
	if err := s.catalogPutIfChanged([]byte(catSeq), seq[:]); err != nil {
		return err
	}
	if err := s.catalog.Flush(); err != nil {
		return err
	}
	var meta [32]byte
	binary.LittleEndian.PutUint32(meta[:4], uint32(s.catalog.Root()))
	if s.pg.UserMeta() != meta {
		s.pg.SetUserMeta(meta)
	}
	if err := s.pg.CommitVersion(); err != nil {
		return err
	}
	return s.installLocked()
}

// installLocked publishes the pager's committed version, which the
// writer's trees hold unedited, as the current View.
func (s *Store) installLocked() error {
	v := &View{st: s, pg: s.pg.PinView(), docs: maps.Clone(s.docs), epochs: maps.Clone(s.epochs)}
	vs := v.slots()
	for name, slot := range s.slots() {
		t, err := btree.Load(v.pg, (*slot).Root())
		if err != nil {
			v.pg.Close()
			return err
		}
		*vs[name] = t
		s.wt.Index.Add((*slot).TakeMetrics())
	}
	s.wt.Index.Add(s.catalog.TakeMetrics())
	s.ctr.add(&s.wt)
	v.refs.Store(1) // the store's own pin, dropped when v is replaced
	s.views = append(slices.DeleteFunc(s.views, func(o *View) bool { return o.refs.Load() <= 0 }), v)
	if old := s.cur.Swap(v); old != nil {
		old.Unpin()
	}
	s.changed = false
	return nil
}

func (s *Store) flushLocked() error {
	if err := s.publishLocked(); err != nil {
		return err
	}
	return s.pg.Flush()
}

// catalogPutIfChanged writes a catalog entry only when its value actually
// changes, keeping Flush idempotent: a flush of an unmodified store
// dirties no pages (which also keeps VerifyPages from re-stamping — and
// thereby hiding — damage in catalog pages before the sweep reads them).
func (s *Store) catalogPutIfChanged(k, v []byte) error {
	cur, ok, err := s.catalog.Get(k)
	if err != nil {
		return err
	}
	if ok && bytes.Equal(cur, v) {
		return nil
	}
	_, err = s.catalog.Put(k, v)
	return err
}

// Close flushes and releases the store. Reads still running fail with
// the pager's ErrClosed.
func (s *Store) Close() error {
	s.writer.Lock()
	defer s.writer.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.pg.Close()
}

// VerifyPages checksums every durable page of the store after flushing
// any buffered state, returning the number of pages checked and the ids
// that failed verification. In-memory stores report zero pages checked.
func (s *Store) VerifyPages() (checked int, corrupt []pager.PageID, err error) {
	s.writer.Lock()
	defer s.writer.Unlock()
	if !s.pg.InMemory() {
		if err := s.flushLocked(); err != nil {
			return 0, nil, err
		}
	}
	return s.pg.Verify()
}

// LoadDocument shreds the XML document from r and indexes it under the
// given unique name, returning its DocID. Loading is streaming: memory use
// is bounded by the index caches, not the document size.
func (s *Store) LoadDocument(name string, r io.Reader) (DocID, error) {
	s.writer.Lock()
	defer s.writer.Unlock()
	if _, exists := s.docs[name]; exists {
		return 0, fmt.Errorf("mass: document %q already loaded", name)
	}
	d := s.nextDoc
	s.nextDoc++
	s.bumpEpochLocked(d)
	err := xmldoc.Parse(r, func(n xmldoc.Node) error { return s.indexNode(d, n) })
	if err != nil {
		// Loading failed midway; remove the partial document so the store
		// stays consistent.
		s.removeDocNodesLocked(d)
		return 0, err
	}
	s.docs[name] = d
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], uint32(d))
	if _, err := s.catalog.Put([]byte(catDoc+name), v[:]); err != nil {
		return 0, err
	}
	return d, s.publishLocked()
}

// indexNode inserts one shredded node into every applicable index.
func (s *Store) indexNode(d DocID, n xmldoc.Node) error {
	if len(n.Name) > maxIndexedValue {
		return fmt.Errorf("mass: name %q exceeds %d bytes", n.Name[:32]+"...", maxIndexedValue)
	}
	if _, err := s.clustered.Put(clusteredKey(d, n.Key), encodeRecord(n)); err != nil {
		return err
	}
	switch n.Kind {
	case xmldoc.KindElement:
		if _, err := s.names.Put(nameKey(n.Name, d, n.Key), nil); err != nil {
			return err
		}
		if _, err := s.elems.Put(docKey(d, n.Key), []byte(n.Name)); err != nil {
			return err
		}
	case xmldoc.KindAttribute:
		if _, err := s.attrs.Put(nameKey(n.Name, d, n.Key), nil); err != nil {
			return err
		}
		if err := s.putValueEntry(valueTagAttr, d, n.Key, n.Value); err != nil {
			return err
		}
	case xmldoc.KindText:
		if _, err := s.texts.Put(docKey(d, n.Key), nil); err != nil {
			return err
		}
		if err := s.putValueEntry(valueTagText, d, n.Key, n.Value); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) putValueEntry(tag byte, d DocID, k flex.Key, v string) error {
	_, trunc := indexedValue(v)
	var flags []byte
	if trunc {
		flags = []byte{valueFlagTruncated}
	}
	if _, err := s.values.Put(valueKey(tag, v, d, k), flags); err != nil {
		return err
	}
	kind := xmldoc.KindText
	if tag == valueTagAttr {
		kind = xmldoc.KindAttribute
	}
	return s.putNumericEntries(kind, d, k, v)
}

// removeDocNodesLocked deletes every index entry belonging to doc d. Used
// for cleanup of failed loads and by DropDocument.
func (s *Store) removeDocNodesLocked(d DocID) {
	lo, hi := clusteredDocRange(d)
	c := s.clustered.NewCursor()
	// Collect first (cursors don't survive mutation), then delete.
	type entry struct {
		key  flex.Key
		node xmldoc.Node
	}
	var all []entry
	for ok := c.Seek(lo); ok && c.InRange(hi); ok = c.Next() {
		_, fk := splitClusteredKey(c.Key())
		v, err := c.Value()
		if err != nil {
			continue
		}
		n, err := decodeRecord(v)
		if err != nil {
			continue
		}
		n.Key = fk
		all = append(all, entry{fk, n})
	}
	for _, e := range all {
		s.deleteNodeIndexEntries(d, e.node)
		s.clustered.Delete(clusteredKey(d, e.key))
	}
}

func (s *Store) deleteNodeIndexEntries(d DocID, n xmldoc.Node) {
	switch n.Kind {
	case xmldoc.KindElement:
		s.names.Delete(nameKey(n.Name, d, n.Key))
		s.elems.Delete(docKey(d, n.Key))
	case xmldoc.KindAttribute:
		s.attrs.Delete(nameKey(n.Name, d, n.Key))
		s.values.Delete(valueKey(valueTagAttr, n.Value, d, n.Key))
		s.deleteNumericEntries(n.Kind, d, n.Key, n.Value)
	case xmldoc.KindText:
		s.texts.Delete(docKey(d, n.Key))
		s.values.Delete(valueKey(valueTagText, n.Value, d, n.Key))
		s.deleteNumericEntries(n.Kind, d, n.Key, n.Value)
	}
}

// bumpEpochLocked invalidates cached document-derived state after a
// mutation, including a failed partial one — a spurious bump only costs
// one redundant recomputation — and marks the store changed for the
// next publication.
func (s *Store) bumpEpochLocked(d DocID) {
	s.epochs[d]++
	s.changed = true
}

// Pin pins the current view: the latest committed version.
func (s *Store) Pin() (*View, error) {
	for {
		// The current view holds the store's pin until it is replaced, so
		// a failed pin means a newer view is current already.
		if v, err := s.cur.Load().Pin(); err == nil {
			return v, nil
		}
	}
}

// The Store's own reads — DocID, Node, CountName and AxisScan — read the
// current view. They serve tools and tests; a reader that needs one
// version across calls pins a View and reads that.

// DocID resolves a document name in the current view.
func (s *Store) DocID(name string) (DocID, bool) { return s.cur.Load().DocID(name) }

// Epoch is the document's statistics epoch in the current view.
func (s *Store) Epoch(d DocID) uint64 { return s.cur.Load().Epoch(d) }

// Node is View.Node on the current view.
func (s *Store) Node(d DocID, k flex.Key) (xmldoc.Node, bool, error) {
	v, _ := s.Pin()
	defer v.Unpin()
	return v.Node(d, k)
}

// CountName is View.CountName on the current view.
func (s *Store) CountName(d DocID, name string) (uint64, error) {
	v, _ := s.Pin()
	defer v.Unpin()
	return v.CountName(d, name)
}

// AxisScan is View.AxisScan on the current view. The scan does not pin
// the view: it must not outlive the next publication.
func (s *Store) AxisScan(d DocID, ctx flex.Key, axis Axis, test NodeTest) *Scanner {
	return s.cur.Load().AxisScan(d, ctx, axis, test)
}

// DropDocument removes a document and all its index entries. It refuses
// with ErrDocumentBusy while a stream or a snapshot pins a view that
// holds the document; the store's own pin on its current view does not
// count.
func (s *Store) DropDocument(name string) error {
	s.writer.Lock()
	defer s.writer.Unlock()
	d, ok := s.docs[name]
	if !ok {
		return ErrNoDoc
	}
	cur := s.cur.Load()
	pins := int64(0)
	for _, v := range s.views {
		if _, holds := v.docs[name]; holds {
			n := v.refs.Load()
			if v == cur {
				n--
			}
			pins += max(n, 0)
		}
	}
	if pins > 0 {
		return fmt.Errorf("%w: %q is pinned by %d reader(s)", ErrDocumentBusy, name, pins)
	}
	s.removeDocNodesLocked(d)
	s.bumpEpochLocked(d)
	delete(s.docs, name)
	if _, err := s.catalog.Delete([]byte(catDoc + name)); err != nil {
		return err
	}
	return s.publishLocked()
}
