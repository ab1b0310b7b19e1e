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

// decodeRecord parses a clustered-index record.
func decodeRecord(b []byte) (xmldoc.Node, error) {
	if len(b) < 2 {
		return xmldoc.Node{}, fmt.Errorf("%w: too short (%d bytes)", ErrCorruptRecord, len(b))
	}
	var n xmldoc.Node
	n.Kind = xmldoc.Kind(b[0])
	nameLen, w := binary.Uvarint(b[1:])
	if w <= 0 || 1+w+int(nameLen) > len(b) {
		return xmldoc.Node{}, fmt.Errorf("%w: name length %d overruns %d bytes", ErrCorruptRecord, nameLen, len(b))
	}
	off := 1 + w
	n.Name = string(b[off : off+int(nameLen)])
	n.Value = string(b[off+int(nameLen):])
	return n, nil
}
