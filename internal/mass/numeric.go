package mass

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"

	"vamana/internal/flex"
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

// appendNumKey appends the numeric-index key prefix tag ++ enc(f) ++ d.
func appendNumKey(dst []byte, tag byte, f float64, d DocID) []byte {
	enc := encodeFloat(f)
	dst = append(append(dst, tag), enc[:]...)
	return binary.BigEndian.AppendUint32(dst, uint32(d))
}

func numKey(tag byte, f float64, d DocID, k flex.Key) []byte {
	return append(appendNumKey(make([]byte, 0, 1+8+4+len(k)), tag, f, d), k...)
}

// numRange appends to lob and hib the bounds of the numeric index over
// values in [lo, hi] / (lo, hi) depending on inclusivity, within doc d;
// ±Inf make a bound unbounded.
//
// Bounds exploit the key layout: within one (value, doc) group, every
// entry's key is tag ++ enc ++ doc ++ flexKey. "Just past all entries of
// (f, d)" is tag ++ enc(f) ++ (d+1), because no flex key sorts at or above
// the next doc id prefix. Entries of other documents whose values lie
// strictly between the bounds fall inside them too.
func numRange(lob, hib []byte, tag byte, d DocID, lo float64, loIncl bool, hi float64, hiIncl bool) ([]byte, []byte) {
	lod, hid := d, d
	if !loIncl {
		lod++
	}
	if hiIncl {
		hid++
	}
	return appendNumKey(lob, tag, lo, lod), appendNumKey(hib, tag, hi, hid)
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
// for open ends). It is exact: it walks the range's entries, whose
// bounds enclose other documents' values, and keeps d's.
func (v *View) NumericRangeCount(d DocID, lo float64, loIncl bool, hi float64, hiIncl bool) (uint64, error) {
	lob, hib := numRange(nil, nil, numTagText, d, lo, loIncl, hi, hiIncl)
	c := cursorOn(v.values)
	var n uint64
	if c.Seek(lob) {
		c.ScanBatch(hib, false, func(k, _ []byte) bool {
			if DocID(binary.BigEndian.Uint32(k[numKeyDoc:])) == d {
				n++
			}
			return true
		})
	}
	v.addCursor(&c)
	return n, c.Err()
}

// NumericRangeBound is the cost model's form of NumericRangeCount: one
// counted-index probe, O(log n). It is an upper bound — it also counts
// other documents' values strictly inside the bounds — which is the
// direction the cost model's output estimates need.
func (v *View) NumericRangeBound(d DocID, lo float64, loIncl bool, hi float64, hiIncl bool) (uint64, error) {
	lob, hib := numRange(nil, nil, numTagText, d, lo, loIncl, hi, hiIncl)
	c := cursorOn(v.values)
	defer v.addCursor(&c)
	return c.Count(lob, hib)
}
