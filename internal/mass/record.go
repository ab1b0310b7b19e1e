package mass

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vamana/internal/xmldoc"
)

// encodeRecord serializes a node for the clustered index. The FLEX key is
// not stored — it is the index key. Layout:
//
//	[kind 1][uvarint name length][name bytes][value bytes ...]
func encodeRecord(n xmldoc.Node) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen32+len(n.Name)+len(n.Value))
	out = append(out, byte(n.Kind))
	var lenBuf [binary.MaxVarintLen32]byte
	w := binary.PutUvarint(lenBuf[:], uint64(len(n.Name)))
	out = append(out, lenBuf[:w]...)
	out = append(out, n.Name...)
	out = append(out, n.Value...)
	return out
}

// ErrCorruptRecord is wrapped by every error reporting a clustered-index
// record that does not decode.
var ErrCorruptRecord = errors.New("mass: corrupt record")

// record is a clustered-index record parsed in place: name and value
// alias the record bytes.
type record struct {
	kind        xmldoc.Kind
	name, value []byte
}

// attrLike reports whether the record is an attribute or namespace node:
// reachable only on their own axes, and never a child or sibling.
func (r record) attrLike() bool {
	return r.kind == xmldoc.KindAttribute || r.kind == xmldoc.KindNamespace
}

// parseRecord splits a clustered-index record without copying it.
func parseRecord(b []byte) (record, error) {
	if len(b) < 2 {
		return record{}, fmt.Errorf("%w: too short (%d bytes)", ErrCorruptRecord, len(b))
	}
	nameLen, w := binary.Uvarint(b[1:])
	if w <= 0 || 1+w+int(nameLen) > len(b) {
		return record{}, fmt.Errorf("%w: name length %d overruns %d bytes", ErrCorruptRecord, nameLen, len(b))
	}
	off := 1 + w + int(nameLen)
	return record{kind: xmldoc.Kind(b[0]), name: b[1+w : off], value: b[off:]}, nil
}

// decodeRecord parses a clustered-index record into a node.
func decodeRecord(b []byte) (xmldoc.Node, error) {
	r, err := parseRecord(b)
	if err != nil {
		return xmldoc.Node{}, err
	}
	return xmldoc.Node{Kind: r.kind, Name: string(r.name), Value: string(r.value)}, nil
}
