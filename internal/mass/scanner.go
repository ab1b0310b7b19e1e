package mass

import (
	"bytes"
	"fmt"

	"vamana/internal/btree"
	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/xmldoc"
)

// Scanner holds the reusable state behind an axis scan: the B+-tree cursor,
// the encoded range-key buffers, and the Scan object handed to the caller.
// The execution engine keeps one Scanner per step operator and rebinds it
// to each context tuple, so the per-binding cost of a step is pure index
// work with no allocations (the dominant cost of pipelined evaluation,
// where a non-leaf step opens one scan per context tuple).
//
// Rebinding keeps the cursor where the previous binding left it
// (btree.Cursor.Reset on the same tree): a step's bindings all walk the same index, and
// context tuples mostly arrive in document order, so the next binding's
// first seek usually lands on the leaf the cursor already holds and the
// step as a whole is one forward walk of its index stream — a structural
// merge. Contexts that arrive out of order (a reverse axis upstream) simply
// miss the held leaf and descend from the root; nothing selects between the
// two but the seek itself. Name and wildcard tests on the self, parent and
// ancestor axes are answered from the names/elems indexes and FLEX-key
// arithmetic through that same cursor, never from clustered records.
//
// A Scanner serves one binding at a time: BindScan invalidates the Scan
// returned by the previous call. Scanners are not safe for concurrent use;
// the Store's internal locking protects the underlying trees, not the
// Scanner's own state. A Scanner that outlives a run must be Released:
// it retains tree and node references that are only meaningful — and only
// safe to keep alive — for the store version the run read.
type Scanner struct {
	store *Store
	d     DocID
	test  NodeTest
	ctx   flex.Key
	shape scanShape

	// Range state (shapeRange, shapeSelfThenRange): a [lo, hi) walk of
	// tree, mapping entries through the accept filter selected by kind.
	// shapeSkip and shapeAttribute reuse lo as seek buffer and hi as the
	// range bound; shapePrevSibWalk reuses lo as the bound and hi as the
	// per-step seek buffer.
	tree       *btree.Tree
	lo, hi     []byte
	reverse    bool
	needsValue bool
	kind       acceptKind
	depth      int      // keep only nodes at this FLEX depth (0 = any)
	skipAnc    flex.Key // drop ancestors of this key ("" = none)
	truncated  bool     // value scans: the probe value itself was truncated
	cur        btree.Cursor
	started    bool

	// Walk state (self, parent, ancestor, preceding-sibling).
	walkKey   flex.Key
	walkDepth int // FLEX depth of walkKey (index-only ancestor walks)
	orSelf    bool
	selfDone  bool
	done      bool

	// probe is the seek buffer of the index-only node tests: the names or
	// elems key of the node being tested.
	probe []byte
	// ancKeys/ancHit are the structural-join stack of name-tested parent
	// and ancestor walks, indexed by FLEX depth: the last key tested at
	// that depth and whether the names index held it. Consecutive contexts
	// share all but their nearest ancestors, so a walk re-probes only the
	// depths where its chain departs from the previous one. Entries are
	// valid for one (store, its mutation generation ancGen, document,
	// test) — BindScan drops them when any of these changes.
	ancKeys []flex.Key
	ancHit  []bool
	ancGen  uint64
	// ctxKind is the node kind every context bound to this scanner is
	// known to have (ctxKindKnown), told by the executor from the
	// producing step's axis and node test. It spares the sibling axes and
	// self::* a storage probe for what the plan already fixes.
	ctxKind      xmldoc.Kind
	ctxKindKnown bool

	bindErr error

	// lim is the owning query's governance limiter (nil = ungoverned):
	// hot loops tick it for amortized cancellation, record decodes charge
	// it, and BindScan installs it on the cursor for page accounting.
	lim *govern.Limiter

	// keyBuf/keyLens are batched-pull scratch: one pull's accepted key
	// bytes accumulate in keyBuf so a single string conversion backs the
	// whole batch (each emitted key is a substring view), instead of one
	// allocation per key.
	keyBuf  []byte
	keyLens []int

	scan Scan
}

// SetLimiter attaches a query-governance limiter to the scanner. It
// applies from the next BindScan on; the executor sets it once per run
// (scanners are pooled across runs, so every run must set it, including
// setting nil for ungoverned runs).
func (sc *Scanner) SetLimiter(l *govern.Limiter) { sc.lim = l }

// SetContextKind tells the scanner what kind of node its contexts are,
// when the caller knows (known = false withdraws the hint). Like the
// limiter it applies from the next BindScan on and must be set by every
// owner of a pooled Scanner.
func (sc *Scanner) SetContextKind(k xmldoc.Kind, known bool) {
	sc.ctxKind, sc.ctxKindKnown = k, known
}

// Release drops everything the scanner retains from its bindings that
// refers to a store version: the cursor's tree and leaf, the store, the
// ancestor stack and the limiter. Buffers are kept. The next BindScan
// starts from a root descent.
func (sc *Scanner) Release() {
	sc.cur.Reset(nil)
	sc.store, sc.tree, sc.lim = nil, nil, nil
	sc.ctx, sc.walkKey, sc.skipAnc = "", "", ""
	clear(sc.ancKeys)
	sc.ancKeys, sc.ancHit = sc.ancKeys[:0], sc.ancHit[:0]
}

// scanShape selects the iteration strategy a binding uses.
type scanShape uint8

const (
	shapeEmpty scanShape = iota
	shapeErr
	shapeSelf
	shapeParent
	shapeAncestor
	shapeRange
	shapeSelfThenRange // descendant-or-self: self candidate, then subtree
	shapeSkip          // clustered skip-scan (child/sibling non-name tests)
	shapeAttribute
	shapePrevSibWalk // preceding-sibling without a name test
)

// acceptKind selects the per-entry filter of a range shape.
type acceptKind uint8

const (
	acceptName acceptKind = iota
	acceptWildcard
	acceptText
	acceptNode
	acceptValue
	acceptAttrValue
)

// BindScan points sc at axis::test from context node ctx within document d
// and returns its scan. The returned Scan is owned by sc and is invalidated
// by the next BindScan on the same Scanner. Binding reuses sc's cursor and
// key buffers, so repeated bindings (one per context tuple) allocate
// nothing after the first.
func (s *Store) BindScan(sc *Scanner, d DocID, ctx flex.Key, axis Axis, test NodeTest) *Scan {
	if ctx == "" {
		ctx = flex.Root
	}
	sc.scan.sc = sc
	if len(sc.ancKeys) > 0 && (sc.store != s || sc.d != d || sc.test != test || sc.ancGen != s.gen.Load()) {
		sc.ancKeys, sc.ancHit = sc.ancKeys[:0], sc.ancHit[:0]
	}
	sc.store, sc.d, sc.test, sc.ctx = s, d, test, ctx
	sc.scan.err, sc.scan.done = nil, false
	sc.started, sc.done, sc.selfDone = false, false, false
	sc.reverse, sc.depth, sc.skipAnc = false, 0, ""
	sc.bindErr = nil

	switch axis {
	case AxisSelf:
		sc.shape = shapeSelf
		sc.bindProbe()
	case AxisChild:
		if test.Type == TestName || test.Type == TestWildcard {
			sc.setRange(ctx, flex.Sep, ctx, flex.SubtreeSentinel)
			sc.depth = ctx.Depth() + 1
		} else {
			sc.setSkip(ctx, flex.Sep, ctx, flex.SubtreeSentinel)
		}
	case AxisDescendant:
		sc.setRange(ctx, flex.Sep, ctx, flex.SubtreeSentinel)
	case AxisDescendantOrSelf:
		sc.setRange(ctx, flex.Sep, ctx, flex.SubtreeSentinel)
		sc.shape = shapeSelfThenRange
	case AxisParent:
		sc.shape = shapeParent
		sc.bindProbe()
	case AxisAncestor:
		sc.bindAncestor(ctx.Parent(), false)
	case AxisAncestorOrSelf:
		sc.bindAncestor(ctx, true)
	case AxisFollowing:
		sc.setRange(ctx, flex.SubtreeSentinel, flex.Root, flex.SubtreeSentinel)
	case AxisFollowingSibling:
		sc.bindFollowingSibling(ctx, test)
	case AxisPreceding:
		// Everything before ctx in document order, minus ancestors.
		sc.setRange(flex.Root, 0, ctx, 0)
		sc.reverse, sc.skipAnc = true, ctx
	case AxisPrecedingSibling:
		sc.bindPrecedingSibling(ctx, test)
	case AxisAttribute:
		sc.shape = shapeAttribute
		sc.lo = append(appendClusteredKey(sc.lo[:0], d, ctx), flex.Sep)
		sc.hi = append(appendClusteredKey(sc.hi[:0], d, ctx), flex.SubtreeSentinel)
		sc.cur.Reset(s.clustered)
	case AxisNamespace:
		// In-scope namespaces need an ancestor walk with prefix shadowing;
		// rare enough to keep on the allocating slow path.
		return s.namespaceScan(d, ctx, test)
	case AxisValue:
		sc.setValueRange(valueTagText, acceptValue, ctx)
	case AxisAttrValue:
		sc.setValueRange(valueTagAttr, acceptAttrValue, ctx)
	default:
		sc.shape = shapeErr
		sc.bindErr = fmt.Errorf("mass: unknown axis %d", axis)
	}
	// Re-targeting the cursor clears its limiter, so the query's limiter is
	// re-installed here, after the shape is chosen.
	sc.cur.SetLimiter(sc.lim)
	return &sc.scan
}

// indexOnly reports whether the bound node test is decided by the names
// or elems index alone (a name or wildcard test), without the record.
func (sc *Scanner) indexOnly() bool {
	return sc.test.Type == TestName || sc.test.Type == TestWildcard
}

// bindProbe points the cursor at the index that answers the walk shapes'
// (self, parent, ancestor) node test: names for a name test, elems for a
// wildcard. Other tests read clustered records and leave the cursor alone.
func (sc *Scanner) bindProbe() {
	switch sc.test.Type {
	case TestName:
		sc.cur.Reset(sc.store.names)
	case TestWildcard:
		sc.cur.Reset(sc.store.elems)
	}
}

// bindAncestor prepares the upward walk starting at start (the context
// itself for ancestor-or-self, else its parent).
func (sc *Scanner) bindAncestor(start flex.Key, orSelf bool) {
	sc.shape = shapeAncestor
	sc.walkKey, sc.orSelf = start, orSelf
	if sc.indexOnly() {
		sc.walkDepth = start.Depth()
		sc.bindProbe()
	}
}

// setRange prepares a range walk over FLEX keys [klo·loExt, khi·hiExt)
// (a 0 extension byte appends nothing), picking the narrowest index for
// the node test.
func (sc *Scanner) setRange(klo flex.Key, loExt byte, khi flex.Key, hiExt byte) {
	s := sc.store
	switch sc.test.Type {
	case TestName:
		sc.tree, sc.kind = s.names, acceptName
		sc.lo = appendNameKey(sc.lo[:0], sc.test.Name, sc.d, klo)
		sc.hi = appendNameKey(sc.hi[:0], sc.test.Name, sc.d, khi)
	case TestWildcard:
		sc.tree, sc.kind = s.elems, acceptWildcard
		sc.lo = appendClusteredKey(sc.lo[:0], sc.d, klo)
		sc.hi = appendClusteredKey(sc.hi[:0], sc.d, khi)
	case TestText:
		sc.tree, sc.kind = s.texts, acceptText
		sc.lo = appendClusteredKey(sc.lo[:0], sc.d, klo)
		sc.hi = appendClusteredKey(sc.hi[:0], sc.d, khi)
	default: // node(), comment(), processing-instruction()
		sc.tree, sc.kind = s.clustered, acceptNode
		sc.lo = appendClusteredKey(sc.lo[:0], sc.d, klo)
		sc.hi = appendClusteredKey(sc.hi[:0], sc.d, khi)
	}
	if loExt != 0 {
		sc.lo = append(sc.lo, loExt)
	}
	if hiExt != 0 {
		sc.hi = append(sc.hi, hiExt)
	}
	sc.needsValue = sc.tree == s.elems || sc.tree == s.clustered || sc.tree == s.values
	sc.cur.Reset(sc.tree)
	sc.shape = shapeRange
}

// setValueRange prepares a value-index walk for entries whose (possibly
// truncated) value equals the probe literal, within ctx's subtree.
func (sc *Scanner) setValueRange(tag byte, kind acceptKind, ctx flex.Key) {
	_, sc.truncated = indexedValue(sc.test.Name)
	sc.lo = appendValueKey(sc.lo[:0], tag, sc.test.Name, sc.d, ctx)
	sc.hi = append(appendValueKey(sc.hi[:0], tag, sc.test.Name, sc.d, ctx), flex.SubtreeSentinel)
	sc.tree, sc.kind, sc.needsValue = sc.store.values, kind, true
	sc.cur.Reset(sc.tree)
	sc.shape = shapeRange
}

// setSkip prepares a clustered skip-scan over [klo·loExt, khi·hiExt): it
// visits only the top-level nodes of the range, seeking past each node's
// whole subtree, which keeps child and sibling iteration proportional to
// the number of children, not descendants.
func (sc *Scanner) setSkip(klo flex.Key, loExt byte, khi flex.Key, hiExt byte) {
	sc.lo = appendClusteredKey(sc.lo[:0], sc.d, klo)
	if loExt != 0 {
		sc.lo = append(sc.lo, loExt)
	}
	sc.hi = appendClusteredKey(sc.hi[:0], sc.d, khi)
	if hiExt != 0 {
		sc.hi = append(sc.hi, hiExt)
	}
	sc.cur.Reset(sc.store.clustered)
	sc.shape = shapeSkip
}

func (sc *Scanner) bindFollowingSibling(ctx flex.Key, test NodeTest) {
	parent := ctx.Parent()
	if parent == "" {
		sc.shape = shapeEmpty // the root has no siblings
		return
	}
	if !sc.ctxHasSiblings(ctx) {
		return
	}
	if test.Type == TestName || test.Type == TestWildcard {
		sc.setRange(ctx, flex.SubtreeSentinel, parent, flex.SubtreeSentinel)
		sc.depth = ctx.Depth()
		return
	}
	sc.setSkip(ctx, flex.SubtreeSentinel, parent, flex.SubtreeSentinel)
}

// ctxHasSiblings reports whether ctx can have siblings at all — attribute
// and namespace nodes have none — and otherwise leaves the scanner in the
// empty (or failed) shape. The kind comes from the executor's hint when the
// plan fixes it; the residual case reads the record's kind byte.
func (sc *Scanner) ctxHasSiblings(ctx flex.Key) bool {
	kind := sc.ctxKind
	if !sc.ctxKindKnown {
		var err error
		if kind, err = sc.store.kindOf(sc.d, ctx, sc.lim); err != nil {
			sc.shape, sc.bindErr = shapeErr, err
			return false
		}
	}
	if kind == xmldoc.KindAttribute || kind == xmldoc.KindNamespace {
		sc.shape = shapeEmpty
		return false
	}
	return true
}

func (sc *Scanner) bindPrecedingSibling(ctx flex.Key, test NodeTest) {
	parent := ctx.Parent()
	if parent == "" {
		sc.shape = shapeEmpty
		return
	}
	if !sc.ctxHasSiblings(ctx) {
		return
	}
	if test.Type == TestName || test.Type == TestWildcard {
		sc.setRange(parent, flex.Sep, ctx, 0)
		sc.reverse, sc.depth = true, ctx.Depth()
		return
	}
	// Clustered walk, one sibling at a time, backwards: the entry just
	// before the current sibling's key is the deepest node of the preceding
	// sibling's subtree (or an attribute of the parent, which terminates
	// the walk). lo bounds the walk; hi doubles as the seek buffer.
	sc.shape = shapePrevSibWalk
	sc.walkKey, sc.depth = ctx, ctx.Depth()
	sc.lo = append(appendClusteredKey(sc.lo[:0], sc.d, parent), flex.Sep)
	sc.cur.Reset(sc.store.clustered)
}

// nextNode dispatches to the bound shape (invoked directly by Scan.Next);
// rebinding swaps the shape state underneath it.
func (sc *Scanner) nextNode() (xmldoc.Node, bool, error) {
	switch sc.shape {
	case shapeEmpty:
		return xmldoc.Node{}, false, nil
	case shapeErr:
		return xmldoc.Node{}, false, sc.bindErr
	case shapeSelf:
		if sc.done {
			return xmldoc.Node{}, false, nil
		}
		sc.done = true
		return sc.evalSelf()
	case shapeSelfThenRange:
		if !sc.selfDone {
			sc.selfDone = true
			n, ok, err := sc.evalSelf()
			if err != nil || ok {
				return n, ok, err
			}
		}
		return sc.nextRange()
	case shapeParent:
		return sc.nextParent()
	case shapeAncestor:
		return sc.nextAncestor()
	case shapeRange:
		return sc.nextRange()
	case shapeSkip:
		return sc.nextSkip()
	case shapeAttribute:
		return sc.nextAttribute()
	case shapePrevSibWalk:
		return sc.nextPrevSib()
	default:
		return xmldoc.Node{}, false, fmt.Errorf("mass: scanner in unknown shape %d", sc.shape)
	}
}

// nextKeys is the batched pull behind Scan.NextKeys: forward range
// shapes walk the cursor in bulk (one lock acquisition and one bulk
// cursor advance per batch, a tight per-leaf loop underneath); every
// other shape falls back to the per-entry walk, which still amortizes
// the executor's virtual-dispatch cost across the batch.
func (sc *Scanner) nextKeys(dst []flex.Key) (int, error) {
	if (sc.shape == shapeRange || sc.shape == shapeSelfThenRange) && !sc.reverse {
		return sc.nextKeysRange(dst)
	}
	n := 0
	for n < len(dst) {
		node, ok, err := sc.nextNode()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		dst[n] = node.Key
		n++
	}
	return n, nil
}

// nextKeysRange bulk-walks a forward [lo, hi) range, filling dst with
// accepted keys. Governance semantics are identical to the per-entry
// walk: the limiter ticks once per index entry examined (preserving the
// 256-tick cancellation cadence), record decodes charge AddRecords
// exactly where accept would, and page reads charge through the cursor's
// limiter at leaf crossings.
func (sc *Scanner) nextKeysRange(dst []flex.Key) (int, error) {
	n := 0
	if sc.shape == shapeSelfThenRange && !sc.selfDone {
		sc.selfDone = true
		node, ok, err := sc.evalSelf()
		if err != nil {
			return 0, err
		}
		if ok {
			dst[0] = node.Key
			n = 1
			if n == len(dst) {
				return n, nil
			}
		}
	}
	if sc.done {
		return n, nil
	}
	s := sc.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sc.started {
		sc.started = true
		if !sc.cur.Seek(sc.lo) {
			sc.done = true
			return n, sc.cur.Err()
		}
	}
	// The wildcard filter needs no value (the key suffix alone identifies
	// the element); skipping the fetch avoids touching value cells at all
	// on '*' scans.
	needVal := sc.needsValue && sc.kind != acceptWildcard
	var entryErr error
	var more bool
	if sc.kind == acceptName || sc.kind == acceptWildcard {
		// Filtering runs on byte views and accepted key bytes accumulate
		// in keyBuf; one string conversion per pull then backs every
		// emitted key as a substring — the scan-heavy common case makes
		// one allocation per batch instead of one per key.
		base := n
		sc.keyBuf, sc.keyLens = sc.keyBuf[:0], sc.keyLens[:0]
		more = sc.cur.ScanBatch(sc.hi, needVal, func(k, _ []byte) bool {
			if err := sc.lim.Tick(); err != nil {
				entryErr = err
				return false
			}
			if kb, keep := sc.acceptKeyView(k); keep {
				sc.keyBuf = append(sc.keyBuf, kb...)
				sc.keyLens = append(sc.keyLens, len(kb))
				n++
			}
			return n < len(dst)
		})
		if n > base {
			batch := string(sc.keyBuf)
			off := 0
			for i, l := range sc.keyLens {
				dst[base+i] = flex.Key(batch[off : off+l])
				off += l
			}
		}
	} else {
		// Text, node() and value entries keep the materializing accept
		// path so record decoding (and its governance charging) stays
		// byte-for-byte identical to the per-entry walk.
		more = sc.cur.ScanBatch(sc.hi, needVal, func(k, v []byte) bool {
			if err := sc.lim.Tick(); err != nil {
				entryErr = err
				return false
			}
			node, keep, err := sc.accept(k, v)
			if err != nil {
				entryErr = err
				return false
			}
			if keep {
				dst[n] = node.Key
				n++
			}
			return n < len(dst)
		})
	}
	if entryErr != nil {
		sc.done = true
		return n, entryErr
	}
	if !more {
		sc.done = true
		if err := sc.cur.Err(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// acceptKeyView is accept for batched name/wildcard pulls: identical
// filtering, returning the FLEX-key byte view instead of a materialized
// node — the caller batches the string allocation. Runs with the store
// lock held; the returned view is tree-owned and must be copied before
// the lock is released.
func (sc *Scanner) acceptKeyView(k []byte) ([]byte, bool) {
	var kb []byte
	if sc.kind == acceptName {
		_, kb, _ = splitNameKeyView(k)
	} else {
		kb = clusteredKeySuffix(k)
	}
	if sc.depth > 0 && flex.DepthOf(kb) != sc.depth {
		return nil, false
	}
	if sc.skipAnc != "" && flex.BytesIsAncestorOf(kb, sc.skipAnc) {
		return nil, false
	}
	return kb, true
}

// elementAt reports whether the node at k is an element that passes the
// bound name or wildcard test, by probing the names (or elems) index for
// exactly k through the positioned cursor. No record is read. Runs with
// the store lock held.
func (sc *Scanner) elementAt(k flex.Key) (bool, error) {
	if sc.test.Type == TestName {
		sc.probe = appendNameKey(sc.probe[:0], sc.test.Name, sc.d, k)
	} else {
		sc.probe = appendClusteredKey(sc.probe[:0], sc.d, k)
	}
	if !sc.cur.Seek(sc.probe) {
		return false, sc.cur.Err()
	}
	return bytes.Equal(sc.cur.Key(), sc.probe), nil
}

// nameAt is elementAt for a name-tested parent or ancestor at the given
// FLEX depth, behind the structural-join stack: a key already tested at
// that depth (by this walk or an earlier context's) is answered from it.
func (sc *Scanner) nameAt(k flex.Key, depth int) (bool, error) {
	if depth < len(sc.ancKeys) && sc.ancKeys[depth] == k {
		return sc.ancHit[depth], nil
	}
	hit, err := sc.elementAt(k)
	if err != nil {
		return false, err
	}
	if len(sc.ancKeys) == 0 {
		sc.ancGen = sc.store.gen.Load()
	}
	for len(sc.ancKeys) <= depth {
		sc.ancKeys, sc.ancHit = append(sc.ancKeys, ""), append(sc.ancHit, false)
	}
	sc.ancKeys[depth], sc.ancHit[depth] = k, hit
	return hit, nil
}

// selfMatches decides a name or wildcard test on the context node itself,
// which — unlike a parent or ancestor — may be of any kind.
func (sc *Scanner) selfMatches() (bool, error) {
	if sc.ctxKindKnown && (sc.ctxKind != xmldoc.KindElement || sc.test.Type == TestWildcard) {
		return sc.ctxKind == xmldoc.KindElement, nil
	}
	return sc.elementAt(sc.ctx)
}

// elementNode is the node an index-only test emits for key k. A name test
// knows the name; a wildcard answered by key arithmetic does not, and
// leaves Name empty (consumers that want it fetch the record).
func (sc *Scanner) elementNode(k flex.Key) xmldoc.Node {
	n := xmldoc.Node{Key: k, Kind: xmldoc.KindElement}
	if sc.test.Type == TestName {
		n.Name = sc.test.Name
	}
	return n
}

// evalSelf tests the context node itself (self:: and the self half of
// descendant-or-self::).
func (sc *Scanner) evalSelf() (xmldoc.Node, bool, error) {
	s := sc.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc.indexOnly() {
		// Attribute and namespace contexts are in neither index, which is
		// also what XPath wants: a name test with the element principal
		// does not match them.
		ok, err := sc.selfMatches()
		if err != nil || !ok {
			return xmldoc.Node{}, false, err
		}
		return sc.elementNode(sc.ctx), true, nil
	}
	n, ok, err := s.nodeLockedFor(sc.d, sc.ctx, sc.lim)
	if err != nil || !ok {
		return xmldoc.Node{}, false, err
	}
	// Attribute and namespace nodes are visible to self:: only via node().
	if sc.test.Matches(n, xmldoc.KindElement) && n.Kind != xmldoc.KindAttribute && n.Kind != xmldoc.KindNamespace ||
		(sc.test.Type == TestNode && (n.Kind == xmldoc.KindAttribute || n.Kind == xmldoc.KindNamespace)) {
		return n, true, nil
	}
	return xmldoc.Node{}, false, nil
}

func (sc *Scanner) nextParent() (xmldoc.Node, bool, error) {
	if sc.done {
		return xmldoc.Node{}, false, nil
	}
	sc.done = true
	p := sc.ctx.Parent()
	if p == "" {
		return xmldoc.Node{}, false, nil
	}
	s := sc.store
	if sc.indexOnly() {
		// A stored node's parent is an element or the document node, and
		// the document node passes neither test: a wildcard is decided by
		// the key alone, a name by one names-index probe.
		if p == flex.Root {
			return xmldoc.Node{}, false, nil
		}
		if sc.test.Type == TestName {
			s.mu.Lock()
			hit, err := sc.nameAt(p, p.Depth())
			s.mu.Unlock()
			if err != nil || !hit {
				return xmldoc.Node{}, false, err
			}
		}
		return sc.elementNode(p), true, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok, err := s.nodeLockedFor(sc.d, p, sc.lim)
	if err != nil || !ok {
		return xmldoc.Node{}, false, err
	}
	if sc.test.Matches(n, xmldoc.KindElement) {
		return n, true, nil
	}
	return xmldoc.Node{}, false, nil
}

// nextAncestor yields matching ancestors nearest-first (reverse document
// order, as XPath requires for this reverse axis).
func (sc *Scanner) nextAncestor() (xmldoc.Node, bool, error) {
	s := sc.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc.indexOnly() {
		return sc.nextAncestorIndexOnly()
	}
	for sc.walkKey != "" {
		if err := sc.lim.Tick(); err != nil {
			return xmldoc.Node{}, false, err
		}
		n, ok, err := s.nodeLockedFor(sc.d, sc.walkKey, sc.lim)
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		cur := sc.walkKey
		sc.walkKey = sc.walkKey.Parent()
		if !ok || !sc.test.Matches(n, xmldoc.KindElement) {
			continue
		}
		// An attribute context node is reachable only as "self" (and only
		// via node()); attributes never appear as ancestors.
		if n.Kind == xmldoc.KindAttribute || n.Kind == xmldoc.KindNamespace {
			if sc.orSelf && cur == sc.ctx && sc.test.Type == TestNode {
				return n, true, nil
			}
			continue
		}
		return n, true, nil
	}
	return xmldoc.Node{}, false, nil
}

// nextAncestorIndexOnly is the ancestor walk under a name or wildcard
// test. Strict ancestors of a stored node are elements up to the document
// node at depth 1, which matches neither test and ends the walk: a
// wildcard takes every one of them on the key alone, a name asks the
// structural-join stack and probes the names index only where the chain
// left the previous context's. The or-self candidate may be any kind of
// node and is decided like self::.
func (sc *Scanner) nextAncestorIndexOnly() (xmldoc.Node, bool, error) {
	for sc.walkDepth > 1 {
		if err := sc.lim.Tick(); err != nil {
			return xmldoc.Node{}, false, err
		}
		cur, depth := sc.walkKey, sc.walkDepth
		sc.walkKey, sc.walkDepth = cur.Parent(), depth-1
		var hit bool
		var err error
		switch {
		case len(cur) == len(sc.ctx):
			hit, err = sc.selfMatches()
		case sc.test.Type == TestName:
			hit, err = sc.nameAt(cur, depth)
		default:
			hit = true
		}
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		if hit {
			return sc.elementNode(cur), true, nil
		}
	}
	return xmldoc.Node{}, false, nil
}

// nextRange walks tree entries in [lo, hi), mapping each through the
// accept filter. Only trees that store values are ever read for values,
// and values are passed as tree-owned views.
func (sc *Scanner) nextRange() (xmldoc.Node, bool, error) {
	s := sc.store
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := sc.lim.Tick(); err != nil {
			return xmldoc.Node{}, false, err
		}
		var ok bool
		if !sc.started {
			sc.started = true
			if sc.reverse {
				ok = sc.cur.SeekBefore(sc.hi)
			} else {
				ok = sc.cur.Seek(sc.lo)
			}
		} else {
			if sc.reverse {
				ok = sc.cur.Prev()
			} else {
				ok = sc.cur.Next()
			}
		}
		if !ok {
			return xmldoc.Node{}, false, sc.cur.Err()
		}
		if sc.reverse {
			if string(sc.cur.Key()) < string(sc.lo) {
				return xmldoc.Node{}, false, nil
			}
		} else if !sc.cur.InRange(sc.hi) {
			return xmldoc.Node{}, false, nil
		}
		var v []byte
		if sc.needsValue {
			var err error
			if v, err = sc.cur.ValueView(); err != nil {
				return xmldoc.Node{}, false, err
			}
		}
		n, keep, err := sc.accept(sc.cur.Key(), v)
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		if keep {
			return n, true, nil
		}
	}
}

// accept maps one index entry to a node, or rejects it. It runs with the
// store lock held; key and value slices are tree-owned views.
func (sc *Scanner) accept(k, v []byte) (xmldoc.Node, bool, error) {
	switch sc.kind {
	case acceptName:
		// Every entry in the name range carries exactly test.Name, so the
		// emitted node reuses that string; filters run on byte views and
		// the only per-entry allocation is the emitted key itself.
		_, kb, _ := splitNameKeyView(k)
		if sc.depth > 0 && flex.DepthOf(kb) != sc.depth {
			return xmldoc.Node{}, false, nil
		}
		if sc.skipAnc != "" && flex.BytesIsAncestorOf(kb, sc.skipAnc) {
			return xmldoc.Node{}, false, nil
		}
		return xmldoc.Node{Key: flex.Key(kb), Kind: xmldoc.KindElement, Name: sc.test.Name}, true, nil
	case acceptWildcard:
		kb := clusteredKeySuffix(k)
		if sc.depth > 0 && flex.DepthOf(kb) != sc.depth {
			return xmldoc.Node{}, false, nil
		}
		if sc.skipAnc != "" && flex.BytesIsAncestorOf(kb, sc.skipAnc) {
			return xmldoc.Node{}, false, nil
		}
		return xmldoc.Node{Key: flex.Key(kb), Kind: xmldoc.KindElement, Name: string(v)}, true, nil
	case acceptText:
		kb := clusteredKeySuffix(k)
		if sc.depth > 0 && flex.DepthOf(kb) != sc.depth {
			return xmldoc.Node{}, false, nil
		}
		// The texts index stores no content: materialize the value from the
		// clustered record (text nodes cannot be ancestors, so the
		// preceding-axis ancestor filter never applies here).
		fk := flex.Key(kb)
		full, ok, err := sc.store.nodeLockedFor(sc.d, fk, sc.lim)
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		if ok {
			return full, true, nil
		}
		return xmldoc.Node{Key: fk, Kind: xmldoc.KindText}, true, nil
	case acceptNode:
		_, fk := splitClusteredKey(k)
		if err := sc.lim.AddRecords(1); err != nil {
			return xmldoc.Node{}, false, err
		}
		sc.store.recordsDecoded++
		n, err := decodeRecord(v)
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		n.Key = fk
		if n.Kind == xmldoc.KindAttribute || n.Kind == xmldoc.KindNamespace {
			return xmldoc.Node{}, false, nil
		}
		if sc.depth > 0 && fk.Depth() != sc.depth {
			return xmldoc.Node{}, false, nil
		}
		if sc.skipAnc != "" && fk.IsAncestorOf(sc.skipAnc) {
			return xmldoc.Node{}, false, nil
		}
		if !sc.test.Matches(n, xmldoc.KindElement) {
			return xmldoc.Node{}, false, nil
		}
		return n, true, nil
	case acceptValue:
		_, kb, _ := splitValueKeyView(k)
		fk := flex.Key(kb)
		n := xmldoc.Node{Key: fk, Kind: xmldoc.KindText, Value: sc.test.Name}
		if sc.truncated || (len(v) > 0 && v[0]&valueFlagTruncated != 0) {
			// The key holds only a prefix; verify against the record.
			full, ok, err := sc.store.nodeLockedFor(sc.d, fk, sc.lim)
			if err != nil {
				return xmldoc.Node{}, false, err
			}
			if !ok || full.Value != sc.test.Name {
				return xmldoc.Node{}, false, nil
			}
			n = full
		}
		return n, true, nil
	case acceptAttrValue:
		_, kb, _ := splitValueKeyView(k)
		fk := flex.Key(kb)
		full, ok, err := sc.store.nodeLockedFor(sc.d, fk, sc.lim)
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		if !ok {
			return xmldoc.Node{}, false, nil
		}
		if (sc.truncated || (len(v) > 0 && v[0]&valueFlagTruncated != 0)) && full.Value != sc.test.Name {
			return xmldoc.Node{}, false, nil
		}
		if sc.test.Attr != "" && full.Name != sc.test.Attr {
			return xmldoc.Node{}, false, nil
		}
		return full, true, nil
	default:
		return xmldoc.Node{}, false, fmt.Errorf("mass: unknown accept kind %d", sc.kind)
	}
}

// nextSkip advances the clustered skip-scan: after yielding (or rejecting)
// a node it seeks past the node's whole subtree. lo is the reused seek
// buffer; hi the range bound.
func (sc *Scanner) nextSkip() (xmldoc.Node, bool, error) {
	s := sc.store
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := sc.lim.Tick(); err != nil {
			return xmldoc.Node{}, false, err
		}
		if !sc.cur.Seek(sc.lo) || !sc.cur.InRange(sc.hi) {
			return xmldoc.Node{}, false, sc.cur.Err()
		}
		v, err := sc.cur.ValueView()
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		if err := sc.lim.AddRecords(1); err != nil {
			return xmldoc.Node{}, false, err
		}
		s.recordsDecoded++
		n, err := decodeRecord(v)
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		// Reuse the seek buffer: next time, resume past this node's whole
		// subtree (key ++ sentinel).
		sc.lo = append(append(sc.lo[:0], sc.cur.Key()...), flex.SubtreeSentinel)
		if n.Kind == xmldoc.KindAttribute || n.Kind == xmldoc.KindNamespace {
			continue // not children
		}
		if sc.test.Matches(n, xmldoc.KindElement) {
			n.Key = flex.Key(clusteredKeySuffix(sc.lo[:len(sc.lo)-1]))
			return n, true, nil
		}
	}
}

// nextAttribute yields ctx's attribute nodes. Attribute and namespace
// nodes precede all other child content in document order (an XPath data
// model invariant the loader and the update API maintain), so they form a
// contiguous clustered prefix directly under ctx: scan forward from the
// subtree start and stop at the first non-attribute node.
func (sc *Scanner) nextAttribute() (xmldoc.Node, bool, error) {
	s := sc.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc.done {
		return xmldoc.Node{}, false, nil
	}
	for {
		if err := sc.lim.Tick(); err != nil {
			return xmldoc.Node{}, false, err
		}
		var ok bool
		if !sc.started {
			sc.started = true
			ok = sc.cur.Seek(sc.lo)
		} else {
			ok = sc.cur.Next()
		}
		if !ok || !sc.cur.InRange(sc.hi) {
			sc.done = true
			return xmldoc.Node{}, false, sc.cur.Err()
		}
		v, err := sc.cur.ValueView()
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		if err := sc.lim.AddRecords(1); err != nil {
			return xmldoc.Node{}, false, err
		}
		s.recordsDecoded++
		n, err := decodeRecord(v)
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		if n.Kind != xmldoc.KindAttribute && n.Kind != xmldoc.KindNamespace {
			// First content child: no attributes follow it in document
			// order, so the scan is complete.
			sc.done = true
			return xmldoc.Node{}, false, nil
		}
		_, fk := splitClusteredKey(sc.cur.Key())
		n.Key = fk
		if n.Kind == xmldoc.KindAttribute && sc.test.Matches(n, xmldoc.KindAttribute) {
			return n, true, nil
		}
	}
}

// nextPrevSib walks preceding siblings one at a time, backwards: the
// clustered entry just before the current sibling's key is the deepest
// node of the preceding sibling's subtree.
func (sc *Scanner) nextPrevSib() (xmldoc.Node, bool, error) {
	s := sc.store
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := sc.lim.Tick(); err != nil {
			return xmldoc.Node{}, false, err
		}
		sc.hi = appendClusteredKey(sc.hi[:0], sc.d, sc.walkKey)
		if !sc.cur.SeekBefore(sc.hi) {
			return xmldoc.Node{}, false, sc.cur.Err()
		}
		if string(sc.cur.Key()) < string(sc.lo) {
			return xmldoc.Node{}, false, nil
		}
		_, fk := splitClusteredKey(sc.cur.Key())
		sib := fk.AncestorAtDepth(sc.depth)
		if sib == "" {
			return xmldoc.Node{}, false, nil
		}
		n, ok, err := s.nodeLockedFor(sc.d, sib, sc.lim)
		if err != nil || !ok {
			return xmldoc.Node{}, false, err
		}
		sc.walkKey = sib
		if n.Kind == xmldoc.KindAttribute || n.Kind == xmldoc.KindNamespace {
			return xmldoc.Node{}, false, nil // reached the parent's attributes
		}
		if sc.test.Matches(n, xmldoc.KindElement) {
			return n, true, nil
		}
	}
}
