package mass

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"

	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/xmldoc"
)

// Numeric value index support. Text and attribute values that parse as
// numbers are additionally indexed under an order-preserving float64
// encoding, so range predicates ([price > 100]) become index range scans
// and range cardinalities become counted-B+-tree probes — the "range
// predicates" the paper lists among MASS-supported predicate forms.
//
// Key layout: tag 'N' (text) / 'M' (attribute) ++ enc(float64) ++ docID
// ++ flexKey. enc flips the sign bit for non-negative values and all bits
// for negative ones, making byte order equal numeric order.

const (
	numTagText = 'N'
	numTagAttr = 'M'
)

// encodeFloat renders f so that byte comparison equals numeric comparison
// (NaN is never indexed).
func encodeFloat(f float64) [8]byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative: flip everything
	} else {
		bits |= 1 << 63 // non-negative: set the sign bit
	}
	var out [8]byte
	binary.BigEndian.PutUint64(out[:], bits)
	return out
}

// decodeFloat inverts encodeFloat.
func decodeFloat(b [8]byte) float64 {
	bits := binary.BigEndian.Uint64(b[:])
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits)
}

// numericValue parses a value per XPath number() semantics, reporting
// whether it is an indexable number.
func numericValue(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}

func numKey(tag byte, f float64, d DocID, k flex.Key) []byte {
	enc := encodeFloat(f)
	out := make([]byte, 0, 1+8+4+len(k))
	out = append(out, tag)
	out = append(out, enc[:]...)
	var db [4]byte
	binary.BigEndian.PutUint32(db[:], uint32(d))
	out = append(out, db[:]...)
	out = append(out, k...)
	return out
}

// numRange bounds the numeric index to values in [lo, hi] / (lo, hi)
// depending on inclusivity, within doc d; ±Inf make a bound unbounded.
//
// Bounds exploit the key layout: within one (value, doc) group, every
// entry's key is tag ++ enc ++ doc ++ flexKey. "Just past all entries of
// (f, d)" is tag ++ enc(f) ++ (d+1), because no flex key sorts at or above
// the next doc id prefix.
func numRange(tag byte, d DocID, lo float64, loIncl bool, hi float64, hiIncl bool) (lob, hib []byte) {
	build := func(f float64, pastAll bool) []byte {
		enc := encodeFloat(f)
		out := make([]byte, 0, 1+8+4)
		out = append(out, tag)
		out = append(out, enc[:]...)
		var db [4]byte
		if pastAll {
			binary.BigEndian.PutUint32(db[:], uint32(d)+1)
		} else {
			binary.BigEndian.PutUint32(db[:], uint32(d))
		}
		return append(out, db[:]...)
	}
	if loIncl {
		lob = build(lo, false)
	} else {
		lob = build(lo, true)
	}
	if hiIncl {
		hib = build(hi, true)
	} else {
		hib = build(hi, false)
	}
	return lob, hib
}

// putNumericEntries indexes a value's numeric interpretation, if any.
func (s *Store) putNumericEntries(kind xmldoc.Kind, d DocID, k flex.Key, v string) error {
	f, ok := numericValue(v)
	if !ok {
		return nil
	}
	tag := byte(numTagText)
	if kind == xmldoc.KindAttribute {
		tag = numTagAttr
	}
	_, err := s.values.Put(numKey(tag, f, d, k), nil)
	return err
}

func (s *Store) deleteNumericEntries(kind xmldoc.Kind, d DocID, k flex.Key, v string) {
	f, ok := numericValue(v)
	if !ok {
		return
	}
	tag := byte(numTagText)
	if kind == xmldoc.KindAttribute {
		tag = numTagAttr
	}
	s.values.Delete(numKey(tag, f, d, k))
}

// NumericRangeCount returns the number of text nodes in d whose numeric
// value lies in the given range (bounds per loIncl/hiIncl; use -Inf/+Inf
// for open ends). One counted-index probe.
func (s *Store) NumericRangeCount(d DocID, lo float64, loIncl bool, hi float64, hiIncl bool) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lob, hib := numRange(numTagText, d, lo, loIncl, hi, hiIncl)
	return s.values.Count(lob, hib)
}

// NumericRangeScanLim streams the text nodes of d whose numeric value
// lies in the range, restricted to ctx's subtree, ordered by numeric
// value. This backs the optimizer's range-predicate rewrite. lim (nil =
// ungoverned) is ticked per index entry and charged for every page read
// and record decode the scan causes.
func (s *Store) NumericRangeScanLim(d DocID, ctx flex.Key, lo float64, loIncl bool, hi float64, hiIncl bool, lim *govern.Limiter) *Scan {
	if ctx == "" {
		ctx = flex.Root
	}
	lob, hib := numRange(numTagText, d, lo, loIncl, hi, hiIncl)
	inner := s.indexScan(s.values, lob, hib, false, lim, func(k []byte) (xmldoc.Node, bool) {
		fk := flex.Key(k[1+8+4:])
		if !(fk == ctx || ctx.IsAncestorOf(fk)) {
			return xmldoc.Node{}, false
		}
		return xmldoc.Node{Key: fk, Kind: xmldoc.KindText}, true
	})
	return s.materializeValues(d, inner, lim)
}
