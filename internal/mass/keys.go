package mass

import (
	"encoding/binary"

	"vamana/internal/flex"
)

// DocID identifies a document within a Store. Documents are numbered from
// 1; 0 is invalid.
type DocID uint32

// Composite index key layouts. All integers are big-endian so byte order
// equals numeric order, and FLEX keys appear last so every range of
// interest (per name, per document, per subtree) is contiguous.
//
//	clustered: docID(4) ++ flexKey            -> node record
//	names:     name ++ 0x00 ++ docID ++ key   -> nil          (elements)
//	attrs:     name ++ 0x00 ++ docID ++ key   -> nil          (attributes)
//	elems:     docID ++ flexKey               -> element name
//	texts:     docID ++ flexKey               -> nil          (text nodes)
//	values:    tag(1) ++ val ++ 0x00 ++ docID ++ key -> flags (text 'T' / attr 'A')
//
// The 0x00 separator is safe because XML names and character data cannot
// contain NUL.

const (
	valueTagText = 'T'
	valueTagAttr = 'A'
)

// maxIndexedValue caps the number of value bytes embedded in a values-index
// key. Longer values are truncated in the key and flagged, so exact-match
// scans verify against the clustered record and counts become upper bounds
// (which is the direction the cost model needs).
const maxIndexedValue = 256

// valueFlagTruncated marks a values-index entry whose key holds only a
// prefix of the node's value.
const valueFlagTruncated = 0x01

// appendClusteredKey encodes a clustered-index key into dst's spare
// capacity. The append-into-scratch variants below let hot scan loops
// reuse one buffer per cursor instead of allocating per probe.
func appendClusteredKey(dst []byte, d DocID, k flex.Key) []byte {
	var db [4]byte
	binary.BigEndian.PutUint32(db[:], uint32(d))
	dst = append(dst, db[:]...)
	return append(dst, k...)
}

func clusteredKey(d DocID, k flex.Key) []byte {
	return appendClusteredKey(make([]byte, 0, 4+len(k)), d, k)
}

// clusteredDocRange returns the key range holding every node of d.
func clusteredDocRange(d DocID) (lo, hi []byte) {
	lo = make([]byte, 4)
	binary.BigEndian.PutUint32(lo, uint32(d))
	hi = make([]byte, 4)
	binary.BigEndian.PutUint32(hi, uint32(d)+1)
	return lo, hi
}

func splitClusteredKey(b []byte) (DocID, flex.Key) {
	return DocID(binary.BigEndian.Uint32(b)), flex.Key(b[4:])
}

// clusteredKeySuffix returns the FLEX-key bytes of a clustered/doc-major
// entry as a view into b, for zero-allocation scan filtering.
func clusteredKeySuffix(b []byte) []byte { return b[4:] }

func appendNameKey(dst []byte, name string, d DocID, k flex.Key) []byte {
	dst = append(dst, name...)
	dst = append(dst, 0)
	var db [4]byte
	binary.BigEndian.PutUint32(db[:], uint32(d))
	dst = append(dst, db[:]...)
	return append(dst, k...)
}

func nameKey(name string, d DocID, k flex.Key) []byte {
	return appendNameKey(make([]byte, 0, len(name)+1+4+len(k)), name, d, k)
}

// nameRange returns the range of nameKey entries for name within doc d
// restricted to FLEX keys in [klo, khi). Empty klo/khi mean the whole
// document; d == 0 means all documents (whole-database statistics).
func nameRange(name string, d DocID, klo, khi flex.Key) (lo, hi []byte) {
	if d == 0 {
		lo = append(append([]byte{}, name...), 0)
		hi = append(append([]byte{}, name...), 1)
		return lo, hi
	}
	if klo == "" {
		klo = flex.Root
	}
	if khi == "" {
		khi = flex.Root.SubtreeUpper()
	}
	return nameKey(name, d, klo), nameKey(name, d, khi)
}

// splitNameKeyView splits a names-index key into its name, FLEX key and
// document without materializing strings: the returned slices alias b
// and are only valid while the source cursor is positioned on the entry.
// Scan filters use it to reject entries with zero allocations.
func splitNameKeyView(b []byte) (name, k []byte, d DocID) {
	for i := 0; i < len(b); i++ {
		if b[i] == 0 {
			return b[:i], b[i+5:], DocID(binary.BigEndian.Uint32(b[i+1 : i+5]))
		}
	}
	return nil, nil, 0
}

func docKey(d DocID, k flex.Key) []byte { return clusteredKey(d, k) }

// docKeyRange bounds doc-major trees (elems, texts) to FLEX keys in
// [klo, khi) within doc d; empty bounds mean the whole document.
func docKeyRange(d DocID, klo, khi flex.Key) (lo, hi []byte) {
	if klo == "" {
		klo = flex.Root
	}
	if khi == "" {
		khi = flex.Root.SubtreeUpper()
	}
	return docKey(d, klo), docKey(d, khi)
}

// indexedValue returns the value bytes embedded in index keys and whether
// truncation occurred.
func indexedValue(v string) (string, bool) {
	if len(v) <= maxIndexedValue {
		return v, false
	}
	return v[:maxIndexedValue], true
}

func appendValueKey(dst []byte, tag byte, v string, d DocID, k flex.Key) []byte {
	iv, _ := indexedValue(v)
	dst = append(dst, tag)
	dst = append(dst, iv...)
	dst = append(dst, 0)
	var db [4]byte
	binary.BigEndian.PutUint32(db[:], uint32(d))
	dst = append(dst, db[:]...)
	return append(dst, k...)
}

func valueKey(tag byte, v string, d DocID, k flex.Key) []byte {
	iv, _ := indexedValue(v)
	return appendValueKey(make([]byte, 0, 1+len(iv)+1+4+len(k)), tag, v, d, k)
}

// valueRange bounds the values index to entries with exactly the given
// (possibly truncated) value, within doc d (0 = all docs) and FLEX keys
// [klo, khi).
func valueRange(tag byte, v string, d DocID, klo, khi flex.Key) (lo, hi []byte) {
	iv, _ := indexedValue(v)
	if d == 0 {
		prefix := append([]byte{tag}, iv...)
		lo = append(append([]byte{}, prefix...), 0)
		hi = append(append([]byte{}, prefix...), 1)
		return lo, hi
	}
	if klo == "" {
		klo = flex.Root
	}
	if khi == "" {
		khi = flex.Root.SubtreeUpper()
	}
	return valueKey(tag, v, d, klo), valueKey(tag, v, d, khi)
}

// splitValueKeyView splits a values-index key into its value, FLEX key
// and document without materializing strings; the returned slices alias
// b (see splitNameKeyView).
func splitValueKeyView(b []byte) (v, k []byte, d DocID) {
	for i := 1; i < len(b); i++ {
		if b[i] == 0 {
			return b[1:i], b[i+5:], DocID(binary.BigEndian.Uint32(b[i+1 : i+5]))
		}
	}
	return nil, nil, 0
}
