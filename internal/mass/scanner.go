package mass

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"vamana/internal/btree"
	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/xmldoc"
)

// Scanner is an axis scan: the nodes reached from one context node by
// axis::test within one document, delivered as FLEX keys in axis order
// (document order for forward axes, reverse document order for reverse
// axes) through NextKeys. It is the unit of MASS's pipelined, index-based
// access, and it yields keys only: a consumer that wants a node's content
// fetches it with a Fetcher (View.Node for one key).
//
// Every axis is evaluated against the indexes; no in-memory tree is ever
// built. Name and wildcard tests stream keys out of the names or elems
// index, text() out of the texts index, and the value and numeric pseudo
// axes out of the values index, without touching a clustered record.
// Records are read only where the node test needs them — node(),
// comment(), processing-instruction(), truncated values, attribute-value
// names and the sibling axes' kind probes — and every such read is
// counted and charged to the query's decoded-records budget.
//
// The execution engine keeps one Scanner per step operator and rebinds it
// to each context tuple, so the per-binding cost of a step is pure index
// work with no allocations (the dominant cost of pipelined evaluation,
// where a non-leaf step opens one scan per context tuple).
//
// Rebinding keeps the cursor where the previous binding left it
// (btree.Cursor.Reset on the same tree): a step's bindings all walk the
// same index, and context tuples mostly arrive in document order, so the
// next binding's first seek usually lands on the leaf the cursor already
// holds and the step as a whole is one forward walk of its index stream —
// a structural merge. Contexts that arrive out of order (a reverse axis
// upstream) simply miss the held leaf and descend from the root; nothing
// selects between the two but the seek itself. Name and wildcard tests on
// the self, parent and ancestor axes are answered from the names/elems
// indexes and FLEX-key arithmetic through that same cursor.
//
// A Scanner is one reader's state on an immutable View: cursor, key
// scratch and counters. A pull takes no lock. A binding replaces the
// previous one, and Scanners are not safe for concurrent use. A Scanner
// that outlives a run must be Released: it retains tree and node
// references that are only meaningful — and only safe to keep alive —
// for the view the run read.
type Scanner struct {
	view  *View
	d     DocID
	test  NodeTest
	ctx   flex.Key
	shape scanShape
	// err is the scan's first error, from the bind or a pull; done is set
	// once the scan is exhausted or failed.
	err  error
	done bool

	// Range state (shapeRange): a [lo, hi) walk of tree, forward or
	// reverse, filtering entries through accept. shapeSkip and
	// shapeAttribute reuse lo as seek buffer and hi as the range bound;
	// shapePrevSibWalk reuses lo as the bound and hi as the clustered key
	// of the sibling last visited.
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

	// Walk state (shapeWalk, and the self half of descendant-or-self): the
	// next key of an upward walk, its FLEX depth, and the depth the walk
	// stops at. self:: and parent:: are one-step walks.
	walkKey   flex.Key
	walkDepth int
	walkStop  int
	// selfFirst makes a range walk ctx itself first (descendant-or-self).
	selfFirst bool

	// keys/keyPos are the key-slice shape's result (the namespace axis),
	// computed at bind time.
	keys   []flex.Key
	keyPos int

	// probe is the seek buffer of the index-only node tests (the names or
	// elems key of the node being tested) and of record reads by key.
	probe []byte
	// ancKeys/ancHit are the structural-join stack of name-tested parent
	// and ancestor walks, indexed by FLEX depth: the last key tested at
	// that depth and whether the names index held it. Consecutive contexts
	// share all but their nearest ancestors, so a walk re-probes only the
	// depths where its chain departs from the previous one. Entries are
	// valid for one (view, document, test) — a bind drops them when any of
	// these changes.
	ancKeys []flex.Key
	ancHit  []bool
	// ctxKind is the node kind every context bound to this scanner is
	// known to have (ctxKindKnown), told by the executor from the
	// producing step's axis and node test. It spares the sibling axes and
	// self::* a storage probe for what the plan already fixes.
	ctxKind      xmldoc.Kind
	ctxKindKnown bool

	// lim is the owning query's governance limiter (nil = ungoverned):
	// hot loops tick it for amortized cancellation, record reads charge
	// it, and a bind installs it on the cursor for page accounting.
	lim *govern.Limiter
	// tally is where the scan counts its work (nil: not counted): its
	// owner's, which adds it to the store's totals once, when it finishes.
	tally *Tally

	// keyBuf/keyLens batch one pull's keys that come from index entries:
	// their bytes accumulate in keyBuf, and one string conversion per pull
	// backs every such key as a substring, instead of one allocation per
	// key.
	keyBuf  []byte
	keyLens []int
}

// SetLimiter attaches a query-governance limiter to the scanner. It
// applies from the next bind on; the executor sets it once per run
// (scanners are pooled across runs, so every run must set it, including
// setting nil for ungoverned runs).
func (sc *Scanner) SetLimiter(l *govern.Limiter) { sc.lim = l }

// SetTally points the scanner's counters at t (nil: not counted). Like
// the limiter, every owner of a pooled Scanner sets it for each run.
func (sc *Scanner) SetTally(t *Tally) { sc.tally = t }

// SetContextKind tells the scanner what kind of node its contexts are,
// when the caller knows (known = false withdraws the hint). Like the
// limiter it applies from the next bind on and must be set by every
// owner of a pooled Scanner.
func (sc *Scanner) SetContextKind(k xmldoc.Kind, known bool) {
	sc.ctxKind, sc.ctxKindKnown = k, known
}

// Release drops everything the scanner retains from its bindings that
// refers to a view or a run: the cursor's tree and leaf, the view, the
// ancestor stack, the limiter and the tally. Buffers are kept. The next
// bind starts from a root descent.
func (sc *Scanner) Release() {
	sc.cur.Reset(nil)
	sc.SetTally(nil)
	sc.view, sc.tree, sc.lim = nil, nil, nil
	sc.ctx, sc.walkKey, sc.skipAnc = "", "", ""
	clear(sc.ancKeys)
	sc.ancKeys, sc.ancHit = sc.ancKeys[:0], sc.ancHit[:0]
}

// scanShape selects the iteration strategy a binding uses.
type scanShape uint8

const (
	shapeWalk        scanShape = iota // self, parent, ancestor(-or-self)
	shapeRange                        // an index range through accept
	shapeSkip                         // clustered skip-scan (child/sibling non-name tests)
	shapeAttribute                    // the attribute prefix of ctx's subtree
	shapePrevSibWalk                  // preceding-sibling without a name test
	shapeKeys                         // precomputed keys (namespace axis)
)

// acceptKind selects the per-entry filter of a range shape. The kinds up
// to acceptKey are decided by the entry's key alone; the rest also
// verify it (Scanner.verify).
type acceptKind uint8

const (
	acceptName  acceptKind = iota // names index: the key decides
	acceptKey                     // elems or texts index: the key decides
	acceptNode                    // clustered index: the record decides
	acceptValue                   // values index, verified where truncated or attribute-named
	acceptNum                     // numeric entries of the values index, within ctx
)

// AxisScan binds a fresh Scanner to axis::test from context node ctx
// within document d. Callers that open many scans of the same step (one
// per context tuple) should hold a Scanner and rebind it with BindScan
// instead.
func (v *View) AxisScan(d DocID, ctx flex.Key, axis Axis, test NodeTest) *Scanner {
	return v.BindScan(new(Scanner), d, ctx, axis, test)
}

// BindScan points sc at axis::test from context node ctx within document
// d and returns it. Binding reuses sc's cursor and key buffers, so
// repeated bindings (one per context tuple) allocate nothing after the
// first.
func (v *View) BindScan(sc *Scanner, d DocID, ctx flex.Key, axis Axis, test NodeTest) *Scanner {
	sc.bind(v, d, ctx, test)
	ctx = sc.ctx
	switch axis {
	case AxisSelf:
		sc.bindWalk(ctx, 1)
	case AxisChild:
		if sc.indexOnly() {
			sc.setRange(ctx, flex.Sep, ctx, flex.SubtreeSentinel)
			sc.depth = ctx.Depth() + 1
		} else {
			sc.setSkip(ctx, flex.Sep, ctx, flex.SubtreeSentinel)
		}
	case AxisDescendant:
		sc.setRange(ctx, flex.Sep, ctx, flex.SubtreeSentinel)
	case AxisDescendantOrSelf:
		sc.bindWalk(ctx, 1)
		sc.setRange(ctx, flex.Sep, ctx, flex.SubtreeSentinel)
		sc.selfFirst = true
	case AxisParent:
		sc.bindWalk(ctx.Parent(), 1)
	case AxisAncestor:
		sc.bindWalk(ctx.Parent(), allSteps)
	case AxisAncestorOrSelf:
		sc.bindWalk(ctx, allSteps)
	case AxisFollowing:
		sc.setRange(ctx, flex.SubtreeSentinel, flex.Root, flex.SubtreeSentinel)
	case AxisFollowingSibling:
		sc.bindFollowingSibling(ctx)
	case AxisPreceding:
		// Everything before ctx in document order, minus ancestors.
		sc.setRange(flex.Root, 0, ctx, 0)
		sc.reverse, sc.skipAnc = true, ctx
	case AxisPrecedingSibling:
		sc.bindPrecedingSibling(ctx)
	case AxisAttribute:
		sc.shape = shapeAttribute
		sc.lo = append(appendClusteredKey(sc.lo[:0], d, ctx), flex.Sep)
		sc.hi = append(appendClusteredKey(sc.hi[:0], d, ctx), flex.SubtreeSentinel)
		sc.cur.Reset(v.clustered)
	case AxisNamespace:
		sc.bindNamespaces()
	case AxisValue:
		sc.setValueRange(valueTagText)
	case AxisAttrValue:
		sc.setValueRange(valueTagAttr)
	default:
		sc.err, sc.done = fmt.Errorf("mass: unknown axis %d", axis), true
	}
	// Re-targeting the cursor clears its limiter, so the query's limiter is
	// re-installed here, after the shape is chosen.
	sc.cur.SetLimiter(sc.lim)
	sc.tally.fold(&sc.cur)
	return sc
}

// BindNumRange points sc at the num-range pseudo axis: the text nodes of
// d within ctx's subtree whose number() lies in the range (bounds per
// loIncl/hiIncl; ±Inf for open ends), ordered by numeric value. This
// backs the optimizer's range-predicate rewrite.
func (v *View) BindNumRange(sc *Scanner, d DocID, ctx flex.Key, lo float64, loIncl bool, hi float64, hiIncl bool) *Scanner {
	sc.bind(v, d, ctx, NodeTest{Type: TestText})
	sc.lo, sc.hi = numRange(sc.lo[:0], sc.hi[:0], numTagText, d, lo, loIncl, hi, hiIncl)
	sc.shape, sc.tree, sc.kind, sc.needsValue = shapeRange, v.values, acceptNum, false
	sc.cur.Reset(v.values)
	sc.cur.SetLimiter(sc.lim)
	return sc
}

// bind resets the per-binding state every shape starts from.
func (sc *Scanner) bind(v *View, d DocID, ctx flex.Key, test NodeTest) {
	if ctx == "" {
		ctx = flex.Root
	}
	if len(sc.ancKeys) > 0 && (sc.view != v || sc.d != d || sc.test != test) {
		sc.ancKeys, sc.ancHit = sc.ancKeys[:0], sc.ancHit[:0]
	}
	sc.view, sc.d, sc.test, sc.ctx = v, d, test, ctx
	sc.err, sc.done, sc.started, sc.selfFirst = nil, false, false, false
	sc.reverse, sc.depth, sc.skipAnc = false, 0, ""
}

// indexOnly reports whether the bound node test is decided by the names
// or elems index alone (a name or wildcard test), without the record.
func (sc *Scanner) indexOnly() bool {
	return sc.test.Type == TestName || sc.test.Type == TestWildcard
}

// allSteps is the length of an upward walk that ends at the root.
const allSteps = math.MaxInt

// bindWalk prepares an upward walk of at most steps nodes starting at
// start. An index-only walk points the cursor at the index that answers
// its node test: names for a name test, elems for a wildcard. Other tests
// read clustered records by key and leave the cursor alone.
func (sc *Scanner) bindWalk(start flex.Key, steps int) {
	sc.shape = shapeWalk
	sc.walkKey, sc.walkDepth = start, start.Depth()
	sc.walkStop = max(sc.walkDepth-steps, 0)
	switch sc.test.Type {
	case TestName:
		sc.cur.Reset(sc.view.names)
	case TestWildcard:
		sc.cur.Reset(sc.view.elems)
	default:
		return
	}
	// The document node (depth 1) passes neither a name nor a wildcard
	// test.
	sc.walkStop = max(sc.walkStop, 1)
}

// setRange prepares a range walk over FLEX keys [klo·loExt, khi·hiExt)
// (a 0 extension byte appends nothing), picking the narrowest index for
// the node test.
func (sc *Scanner) setRange(klo flex.Key, loExt byte, khi flex.Key, hiExt byte) {
	v := sc.view
	switch sc.test.Type {
	case TestName:
		sc.tree, sc.kind = v.names, acceptName
		sc.lo = appendNameKey(sc.lo[:0], sc.test.Name, sc.d, klo)
		sc.hi = appendNameKey(sc.hi[:0], sc.test.Name, sc.d, khi)
	case TestWildcard, TestText:
		sc.tree, sc.kind = v.elems, acceptKey
		if sc.test.Type == TestText {
			sc.tree = v.texts
		}
	default: // node(), comment(), processing-instruction()
		sc.tree, sc.kind = v.clustered, acceptNode
	}
	if sc.kind != acceptName {
		sc.lo = appendClusteredKey(sc.lo[:0], sc.d, klo)
		sc.hi = appendClusteredKey(sc.hi[:0], sc.d, khi)
	}
	if loExt != 0 {
		sc.lo = append(sc.lo, loExt)
	}
	if hiExt != 0 {
		sc.hi = append(sc.hi, hiExt)
	}
	sc.needsValue = sc.kind == acceptNode
	sc.cur.Reset(sc.tree)
	sc.shape = shapeRange
}

// setValueRange prepares a value-index walk for entries whose (possibly
// truncated) value equals the probe literal, within ctx's subtree.
func (sc *Scanner) setValueRange(tag byte) {
	_, sc.truncated = indexedValue(sc.test.Name)
	sc.lo = appendValueKey(sc.lo[:0], tag, sc.test.Name, sc.d, sc.ctx)
	sc.hi = append(appendValueKey(sc.hi[:0], tag, sc.test.Name, sc.d, sc.ctx), flex.SubtreeSentinel)
	sc.tree, sc.kind, sc.needsValue = sc.view.values, acceptValue, true
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
	sc.cur.Reset(sc.view.clustered)
	sc.shape = shapeSkip
}

func (sc *Scanner) bindFollowingSibling(ctx flex.Key) {
	parent := ctx.Parent()
	if !sc.ctxHasSiblings(ctx, parent) {
		return
	}
	if sc.indexOnly() {
		sc.setRange(ctx, flex.SubtreeSentinel, parent, flex.SubtreeSentinel)
		sc.depth = ctx.Depth()
		return
	}
	sc.setSkip(ctx, flex.SubtreeSentinel, parent, flex.SubtreeSentinel)
}

func (sc *Scanner) bindPrecedingSibling(ctx flex.Key) {
	parent := ctx.Parent()
	if !sc.ctxHasSiblings(ctx, parent) {
		return
	}
	if sc.indexOnly() {
		sc.setRange(parent, flex.Sep, ctx, 0)
		sc.reverse, sc.depth = true, ctx.Depth()
		return
	}
	// Clustered walk, one sibling at a time, backwards: the entry just
	// before the current sibling's key is the deepest node of the preceding
	// sibling's subtree (or an attribute of the parent, which terminates
	// the walk). lo bounds the walk; hi holds the current sibling's key.
	sc.shape = shapePrevSibWalk
	sc.depth = ctx.Depth()
	sc.lo = append(appendClusteredKey(sc.lo[:0], sc.d, parent), flex.Sep)
	sc.hi = appendClusteredKey(sc.hi[:0], sc.d, ctx)
	sc.cur.Reset(sc.view.clustered)
}

// ctxHasSiblings reports whether ctx can have siblings at all — the root
// and attribute and namespace nodes have none — and otherwise leaves the
// scanner exhausted (or failed). The kind comes from the executor's hint
// when the plan fixes it; the residual case reads the context's record.
func (sc *Scanner) ctxHasSiblings(ctx, parent flex.Key) bool {
	if parent == "" {
		sc.done = true
		return false
	}
	kind := sc.ctxKind
	if !sc.ctxKindKnown {
		sc.probe = appendClusteredKey(sc.probe[:0], sc.d, ctx)
		r, ok, err := sc.recordAt(sc.probe)
		if err == nil && !ok {
			err = fmt.Errorf("mass: no node at %q", ctx)
		}
		if err != nil {
			sc.err, sc.done = err, true
			return false
		}
		kind = r.kind
	}
	if kind == xmldoc.KindAttribute || kind == xmldoc.KindNamespace {
		sc.done = true
		return false
	}
	return true
}

// bindNamespaces computes the in-scope namespace nodes of ctx —
// declarations on ctx or the nearest ancestor, one per prefix,
// nearest-first — into the key-slice shape. Namespace declarations sort
// with the attributes, first under their element.
func (sc *Scanner) bindNamespaces() {
	sc.shape, sc.keys, sc.keyPos = shapeKeys, sc.keys[:0], 0
	sc.cur.Reset(sc.view.clustered)
	sc.cur.SetLimiter(sc.lim)
	var seen map[string]bool
	for k := sc.ctx; k != ""; k = k.Parent() {
		sc.lo = append(appendClusteredKey(sc.lo[:0], sc.d, k), flex.Sep, 'a')
		sc.hi = append(appendClusteredKey(sc.hi[:0], sc.d, k), flex.Sep, 'b')
		for ok := sc.cur.Seek(sc.lo); ok && sc.cur.InRange(sc.hi); ok = sc.cur.Next() {
			v, err := sc.cur.ValueView()
			var r record
			if err == nil {
				r, err = sc.readRecord(v)
			}
			if err != nil {
				sc.err, sc.done = err, true
				return
			}
			if r.kind != xmldoc.KindNamespace || seen[string(r.name)] {
				continue
			}
			if seen == nil {
				seen = map[string]bool{}
			}
			seen[string(r.name)] = true
			if sc.test.matchesRecord(r, xmldoc.KindNamespace) {
				sc.keys = append(sc.keys, flex.Key(clusteredKeySuffix(sc.cur.Key())))
			}
		}
		if err := sc.cur.Err(); err != nil {
			sc.err, sc.done = err, true
			return
		}
	}
}

// NextKeys fills dst with the FLEX keys of the scan's next nodes and
// returns how many it produced: len(dst), unless the scan is exhausted or
// failed first (a short count means exhausted-or-error; once drained,
// further calls return 0). A pull takes no lock: it reads an immutable
// view, and forward ranges advance the B+-tree cursor in bulk. The keys
// preceding a failure are valid and are delivered along with the error.
func (sc *Scanner) NextKeys(dst []flex.Key) (int, error) {
	if sc.done || len(dst) == 0 {
		return 0, sc.err
	}
	sc.keyBuf, sc.keyLens = sc.keyBuf[:0], sc.keyLens[:0]
	n, err := sc.fill(dst)
	sc.tally.fold(&sc.cur)
	if len(sc.keyLens) > 0 {
		// Keys copied out of index entries always follow the keys a walk
		// stored directly, so they are the last len(keyLens) of the pull.
		batch := string(sc.keyBuf)
		at, off := n-len(sc.keyLens), 0
		for i, l := range sc.keyLens {
			dst[at+i] = flex.Key(batch[off : off+l])
			off += l
		}
	}
	if err != nil || n < len(dst) {
		sc.err, sc.done = err, true
	}
	return n, err
}

// fill dispatches one pull to the bound shape.
// Every shape fills dst until it is full or the shape is exhausted, so a
// short count ends the scan.
func (sc *Scanner) fill(dst []flex.Key) (int, error) {
	switch sc.shape {
	case shapeWalk:
		return sc.walk(dst)
	case shapeRange:
		n := 0
		if sc.selfFirst {
			sc.selfFirst = false
			var err error
			if n, err = sc.walk(dst[:1]); err != nil || n == len(dst) {
				return n, err
			}
		}
		var m int
		var err error
		if sc.reverse {
			m, err = sc.scanReverse(dst[n:])
		} else {
			m, err = sc.scanForward(dst[n:])
		}
		return n + m, err
	case shapeSkip:
		return sc.skipChildren(dst)
	case shapeAttribute:
		return sc.attributes(dst)
	case shapePrevSibWalk:
		return sc.prevSiblings(dst)
	default: // shapeKeys
		n := copy(dst, sc.keys[sc.keyPos:])
		sc.keyPos += n
		return n, nil
	}
}

// emit adds the key bytes of an accepted index entry to the pull's batch
// (see NextKeys). kb may be tree-owned: it is copied here.
func (sc *Scanner) emit(kb []byte) {
	sc.keyBuf = append(sc.keyBuf, kb...)
	sc.keyLens = append(sc.keyLens, len(kb))
}

// charge counts one record read and charges it to the query's budget.
func (sc *Scanner) charge() error {
	if err := sc.lim.AddRecords(1); err != nil {
		return err
	}
	if sc.tally != nil {
		sc.tally.RecordsDecoded++
	}
	return nil
}

// readRecord parses the record v a cursor is positioned on, charged.
func (sc *Scanner) readRecord(v []byte) (record, error) {
	if err := sc.charge(); err != nil {
		return record{}, err
	}
	return parseRecord(v)
}

// recordAt reads the record stored under clustered key ck, charged. The
// record's name and value are views of the page image, which never
// changes.
func (sc *Scanner) recordAt(ck []byte) (record, bool, error) {
	if err := sc.charge(); err != nil {
		return record{}, false, err
	}
	var r record
	var perr error
	c := cursorOn(sc.view.clustered)
	ok, err := c.Lookup(ck, func(v []byte) { r, perr = parseRecord(v) })
	sc.tally.fold(&c)
	if err == nil {
		err = perr
	}
	if err != nil || !ok {
		return record{}, false, err
	}
	return r, true, nil
}

// walk fills dst from the upward walk: the nodes from walkKey up to (not
// including) depth walkStop, nearest first, that pass the node test. Its
// keys are prefixes of the context key, stored directly.
func (sc *Scanner) walk(dst []flex.Key) (int, error) {
	n := 0
	for n < len(dst) && sc.walkDepth > sc.walkStop {
		if err := sc.lim.Tick(); err != nil {
			return n, err
		}
		k, depth := sc.walkKey, sc.walkDepth
		sc.walkKey, sc.walkDepth = k.Parent(), depth-1
		hit, err := sc.walkMatches(k, depth)
		if err != nil {
			return n, err
		}
		if hit {
			dst[n] = k
			n++
		}
	}
	return n, nil
}

// walkMatches decides the node test on one node of an upward walk.
// Strict ancestors of a stored node are elements up to the document node
// at depth 1: under a wildcard each is a hit on the key alone, under a
// name test the structural-join stack or one names-index probe decides.
// The context itself (self::, the or-self candidate) may be of any kind.
func (sc *Scanner) walkMatches(k flex.Key, depth int) (bool, error) {
	self := len(k) == len(sc.ctx)
	if sc.indexOnly() {
		switch {
		case self:
			return sc.selfMatches()
		case sc.test.Type == TestName:
			return sc.nameAt(k, depth)
		default:
			return true, nil
		}
	}
	sc.probe = appendClusteredKey(sc.probe[:0], sc.d, k)
	r, ok, err := sc.recordAt(sc.probe)
	if err != nil || !ok {
		return false, err
	}
	if r.attrLike() {
		// Attribute and namespace nodes are on a walk only as its context,
		// and visible there only to node().
		return self && sc.test.Type == TestNode, nil
	}
	return sc.test.matchesRecord(r, xmldoc.KindElement), nil
}

// elementAt reports whether the node at k is an element that passes the
// bound name or wildcard test, by probing the names (or elems) index for
// exactly k through the positioned cursor. No record is read.
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
	for len(sc.ancKeys) <= depth {
		sc.ancKeys, sc.ancHit = append(sc.ancKeys, ""), append(sc.ancHit, false)
	}
	sc.ancKeys[depth], sc.ancHit[depth] = k, hit
	return hit, nil
}

// selfMatches decides a name or wildcard test on the context node itself,
// which — unlike a parent or ancestor — may be of any kind. Attribute and
// namespace contexts are in neither index, which is also what XPath
// wants: a name test with the element principal does not match them.
func (sc *Scanner) selfMatches() (bool, error) {
	if sc.ctxKindKnown && (sc.ctxKind != xmldoc.KindElement || sc.test.Type == TestWildcard) {
		return sc.ctxKind == xmldoc.KindElement, nil
	}
	return sc.elementAt(sc.ctx)
}

// scanForward bulk-walks the forward [lo, hi) range, filling dst with
// accepted keys. The limiter ticks once per index entry examined, record
// reads charge where accept makes them, and page reads charge through
// the cursor's limiter at leaf crossings.
func (sc *Scanner) scanForward(dst []flex.Key) (int, error) {
	if !sc.started {
		sc.started = true
		if !sc.cur.Seek(sc.lo) {
			return 0, sc.cur.Err()
		}
	}
	// Names, elems and texts entries under no depth or ancestor filter —
	// the scan-heavy drains — are decided by their key alone and skip the
	// call to accept.
	keyOnly := sc.kind <= acceptKey && sc.depth == 0 && sc.skipAnc == ""
	n := 0
	var entryErr error
	sc.cur.ScanBatch(sc.hi, sc.needsValue, func(k, v []byte) bool {
		if err := sc.lim.Tick(); err != nil {
			entryErr = err
			return false
		}
		var kb []byte
		if keyOnly {
			kb = sc.indexKey(k)
		} else {
			var err error
			if kb, err = sc.accept(k, v); err != nil {
				entryErr = err
				return false
			}
		}
		if kb != nil {
			sc.emit(kb)
			n++
		}
		return n < len(dst)
	})
	if entryErr != nil {
		return n, entryErr
	}
	return n, sc.cur.Err()
}

// scanReverse walks the [lo, hi) range backwards, entry by entry.
func (sc *Scanner) scanReverse(dst []flex.Key) (int, error) {
	n := 0
	for n < len(dst) {
		if err := sc.lim.Tick(); err != nil {
			return n, err
		}
		var ok bool
		if !sc.started {
			sc.started = true
			ok = sc.cur.SeekBefore(sc.hi)
		} else {
			ok = sc.cur.Prev()
		}
		if !ok || bytes.Compare(sc.cur.Key(), sc.lo) < 0 {
			return n, sc.cur.Err()
		}
		var v []byte
		if sc.needsValue {
			var err error
			if v, err = sc.cur.ValueView(); err != nil {
				return n, err
			}
		}
		kb, err := sc.accept(sc.cur.Key(), v)
		if err != nil {
			return n, err
		}
		if kb != nil {
			sc.emit(kb)
			n++
		}
	}
	return n, nil
}

// numKeyDoc is the offset of the document id in a numeric-index key
// (tag ++ enc(float64) ++ docID ++ flexKey).
const numKeyDoc = 1 + 8

// accept filters one range entry, returning the FLEX-key bytes of the
// node it stands for, or nil when the entry is rejected. k, v and the
// returned view are tree-owned.
func (sc *Scanner) accept(k, v []byte) ([]byte, error) {
	var kb []byte
	switch sc.kind {
	case acceptValue:
		_, kb, _ = splitValueKeyView(k)
	case acceptNum:
		kb = k[numKeyDoc+4:]
	default:
		kb = sc.indexKey(k)
	}
	if sc.depth > 0 && flex.DepthOf(kb) != sc.depth || sc.skipAnc != "" && flex.BytesIsAncestorOf(kb, sc.skipAnc) {
		return nil, nil
	}
	if sc.kind >= acceptNode {
		if ok, err := sc.verify(k, kb, v); !ok || err != nil {
			return nil, err
		}
	}
	return kb, nil
}

// indexKey returns the FLEX-key bytes of a names, elems, texts or
// clustered entry.
func (sc *Scanner) indexKey(k []byte) []byte {
	if sc.kind == acceptName {
		_, kb, _ := splitNameKeyView(k)
		return kb
	}
	return clusteredKeySuffix(k)
}

// verify decides the entries whose index key alone does not: node()
// and the other record tests read the record, value hits are checked
// where the entry cannot decide them (valueMatches), and numeric entries
// are kept for d within ctx's subtree — the numeric bounds enclose every
// document's entries between them.
func (sc *Scanner) verify(k, kb, v []byte) (bool, error) {
	switch sc.kind {
	case acceptNode:
		r, err := sc.readRecord(v)
		return err == nil && !r.attrLike() && sc.test.matchesRecord(r, xmldoc.KindElement), err
	case acceptValue:
		return sc.valueMatches(kb, v)
	default: // acceptNum
		c := sc.ctx
		return DocID(binary.BigEndian.Uint32(k[numKeyDoc:])) == sc.d && len(kb) >= len(c) &&
			string(kb[:len(c)]) == string(c) && (len(kb) == len(c) || kb[len(c)] == flex.Sep), nil
	}
}

// valueMatches verifies a value-index hit against its record where the
// entry alone cannot decide it: the value was truncated in the key, or
// the attr-value axis names the attribute.
func (sc *Scanner) valueMatches(kb, v []byte) (bool, error) {
	truncated := sc.truncated || len(v) > 0 && v[0]&valueFlagTruncated != 0
	if !truncated && sc.test.Attr == "" {
		return true, nil
	}
	sc.probe = append(appendClusteredKey(sc.probe[:0], sc.d, ""), kb...)
	r, ok, err := sc.recordAt(sc.probe)
	if err != nil || !ok {
		return false, err
	}
	return (!truncated || string(r.value) == sc.test.Name) && (sc.test.Attr == "" || string(r.name) == sc.test.Attr), nil
}

// skipChildren advances the clustered skip-scan: after taking (or
// rejecting) a node it seeks past the node's whole subtree. lo is the
// reused seek buffer; hi the range bound.
func (sc *Scanner) skipChildren(dst []flex.Key) (int, error) {
	n := 0
	for n < len(dst) {
		if err := sc.lim.Tick(); err != nil {
			return n, err
		}
		if !sc.cur.Seek(sc.lo) || !sc.cur.InRange(sc.hi) {
			return n, sc.cur.Err()
		}
		v, err := sc.cur.ValueView()
		if err != nil {
			return n, err
		}
		r, err := sc.readRecord(v)
		if err != nil {
			return n, err
		}
		// Next time, resume past this node's whole subtree (key ++ sentinel).
		sc.lo = append(append(sc.lo[:0], sc.cur.Key()...), flex.SubtreeSentinel)
		if !r.attrLike() && sc.test.matchesRecord(r, xmldoc.KindElement) {
			sc.emit(clusteredKeySuffix(sc.lo[:len(sc.lo)-1]))
			n++
		}
	}
	return n, nil
}

// attributes walks ctx's attribute nodes. Attribute and namespace nodes
// precede all other child content in document order (an XPath data model
// invariant the loader and the update API maintain), so they form a
// contiguous clustered prefix directly under ctx: scan forward from the
// subtree start and stop at the first non-attribute node.
func (sc *Scanner) attributes(dst []flex.Key) (int, error) {
	n := 0
	for n < len(dst) {
		if err := sc.lim.Tick(); err != nil {
			return n, err
		}
		var ok bool
		if !sc.started {
			sc.started = true
			ok = sc.cur.Seek(sc.lo)
		} else {
			ok = sc.cur.Next()
		}
		if !ok || !sc.cur.InRange(sc.hi) {
			return n, sc.cur.Err()
		}
		v, err := sc.cur.ValueView()
		if err != nil {
			return n, err
		}
		r, err := sc.readRecord(v)
		if err != nil {
			return n, err
		}
		if !r.attrLike() {
			return n, nil // the first content child: no attributes follow
		}
		if r.kind == xmldoc.KindAttribute && sc.test.matchesRecord(r, xmldoc.KindAttribute) {
			sc.emit(clusteredKeySuffix(sc.cur.Key()))
			n++
		}
	}
	return n, nil
}

// prevSiblings walks preceding siblings one at a time, backwards: the
// clustered entry just before the current sibling's key is the deepest
// node of the preceding sibling's subtree, and that sibling's key is its
// prefix at the context's depth.
func (sc *Scanner) prevSiblings(dst []flex.Key) (int, error) {
	n := 0
	for n < len(dst) {
		if err := sc.lim.Tick(); err != nil {
			return n, err
		}
		if !sc.cur.SeekBefore(sc.hi) || bytes.Compare(sc.cur.Key(), sc.lo) < 0 {
			return n, sc.cur.Err()
		}
		k := sc.cur.Key()
		fk := clusteredKeySuffix(k)
		sib := flex.BytesAncestorAtDepth(fk, sc.depth)
		if sib == nil {
			return n, nil
		}
		sc.hi = append(sc.hi[:0], k[:len(k)-len(fk)+len(sib)]...)
		r, ok, err := sc.recordAt(sc.hi)
		if err != nil || !ok || r.attrLike() {
			return n, err // attrLike: reached the parent's attributes
		}
		if sc.test.matchesRecord(r, xmldoc.KindElement) {
			sc.emit(clusteredKeySuffix(sc.hi))
			n++
		}
	}
	return n, nil
}
