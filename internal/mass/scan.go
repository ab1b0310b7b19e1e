package mass

import (
	"fmt"

	"vamana/internal/btree"
	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/xmldoc"
)

// AxisScan returns a lazy scan of the nodes reached from context node ctx
// by axis::test within document d, in axis order (document order for
// forward axes, reverse document order for reverse axes).
//
// Every axis is evaluated against the indexes; no in-memory tree is ever
// built. Name tests on the downward and horizontal axes are "index-only":
// they stream keys out of the name index without touching the clustered
// data at all.
//
// Each call allocates a fresh Scanner; callers that open many scans of the
// same step (one per context tuple) should hold a Scanner and rebind it
// with BindScan instead.
func (s *Store) AxisScan(d DocID, ctx flex.Key, axis Axis, test NodeTest) *Scan {
	return s.BindScan(new(Scanner), d, ctx, axis, test)
}

// ValueScan streams the text nodes within ctx's subtree whose string value
// equals value, in document order, using a single value-index range probe.
// This is the "one look-up" evaluation of value predicates the paper
// contrasts with eXist's traversal fallback.
func (s *Store) ValueScan(d DocID, ctx flex.Key, value string) *Scan {
	return s.BindScan(new(Scanner), d, ctx, AxisValue, NodeTest{Name: value})
}

// AttrValueScan streams the attribute nodes within ctx's subtree whose
// value equals value, in document order.
func (s *Store) AttrValueScan(d DocID, ctx flex.Key, value string) *Scan {
	return s.BindScan(new(Scanner), d, ctx, AxisAttrValue, NodeTest{Name: value})
}

// indexScan iterates tree keys in [lo, hi), mapping each through accept
// (which may reject). Only keys are touched, never values. The numeric
// index uses it; axis scans go through Scanner. lim (nil = ungoverned)
// is ticked per entry and charged for the cursor's page reads.
func (s *Store) indexScan(tree *btree.Tree, lo, hi []byte, reverse bool, lim *govern.Limiter, accept func(k []byte) (xmldoc.Node, bool)) *Scan {
	var cur *btree.Cursor
	started := false
	return &Scan{next: func() (xmldoc.Node, bool, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if cur == nil {
			cur = tree.NewCursor()
			cur.SetLimiter(lim)
		}
		for {
			if err := lim.Tick(); err != nil {
				return xmldoc.Node{}, false, err
			}
			var ok bool
			if !started {
				started = true
				if reverse {
					ok = cur.SeekBefore(hi)
				} else {
					ok = cur.Seek(lo)
				}
			} else {
				if reverse {
					ok = cur.Prev()
				} else {
					ok = cur.Next()
				}
			}
			if !ok {
				return xmldoc.Node{}, false, cur.Err()
			}
			if reverse {
				if string(cur.Key()) < string(lo) {
					return xmldoc.Node{}, false, nil
				}
			} else if !cur.InRange(hi) {
				return xmldoc.Node{}, false, nil
			}
			if n, keep := accept(cur.Key()); keep {
				return n, true, nil
			}
		}
	}}
}

// materializeValues fills in Value for text nodes coming out of a keys-only
// index (which stores no content) by probing the clustered index.
func (s *Store) materializeValues(d DocID, in *Scan, lim *govern.Limiter) *Scan {
	return &Scan{next: func() (xmldoc.Node, bool, error) {
		n, ok := in.Next()
		if !ok {
			return xmldoc.Node{}, false, in.Err()
		}
		s.mu.Lock()
		full, ok2, err := s.nodeLockedFor(d, n.Key, lim)
		s.mu.Unlock()
		if err != nil {
			return xmldoc.Node{}, false, err
		}
		if ok2 {
			return full, true, nil
		}
		return n, true, nil
	}}
}

// kindOf reads the kind byte of the record at (d, k) without decoding the
// record. It is a record fetch all the same, so it is counted and charged
// to the query's decoded-records budget like nodeLockedFor.
func (s *Store) kindOf(d DocID, k flex.Key, lim *govern.Limiter) (xmldoc.Kind, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := lim.AddRecords(1); err != nil {
		return 0, err
	}
	s.recordsDecoded++
	s.keyBuf = appendClusteredKey(s.keyBuf[:0], d, k)
	kind := -1
	ok, err := s.clustered.View(s.keyBuf, func(v []byte) {
		if len(v) > 0 {
			kind = int(v[0])
		}
	})
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("mass: no node at %q", k)
	}
	if kind < 0 {
		return 0, fmt.Errorf("%w: empty record at %q", ErrCorruptRecord, k)
	}
	return xmldoc.Kind(kind), nil
}

// namespaceScan yields the in-scope namespace nodes of ctx: declarations
// on ctx or the nearest ancestor, one per prefix, nearest-first.
func (s *Store) namespaceScan(d DocID, ctx flex.Key, test NodeTest) *Scan {
	s.mu.Lock()
	var out []xmldoc.Node
	seen := map[string]bool{}
	for k := ctx; k != ""; k = k.Parent() {
		lo := clusteredKey(d, k.DescLower()+"a")
		hi := clusteredKey(d, k.DescLower()+"b")
		c := s.clustered.NewCursor()
		for ok := c.Seek(lo); ok && c.InRange(hi); ok = c.Next() {
			v, err := c.Value()
			if err != nil {
				s.mu.Unlock()
				return errScan(err)
			}
			s.recordsDecoded++
			n, err := decodeRecord(v)
			if err != nil || n.Kind != xmldoc.KindNamespace || seen[n.Name] {
				continue
			}
			seen[n.Name] = true
			_, fk := splitClusteredKey(c.Key())
			n.Key = fk
			if test.Matches(n, xmldoc.KindNamespace) {
				out = append(out, n)
			}
		}
	}
	s.mu.Unlock()
	return sliceScan(out)
}
