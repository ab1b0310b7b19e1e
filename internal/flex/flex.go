// Package flex implements FLEX (Fast Lexicographical) keys, the structural
// encoding that MASS uses to identify XML nodes (Deschler & Rundensteiner,
// CIKM 2003; used by VAMANA, ICDE 2005).
//
// A FLEX key is a dotted sequence of components, e.g. "a.d.y.c". Each
// component is a non-empty string over the alphabet 'a'..'z' that does not
// end in 'a'. The dotted serialization has a central property: comparing two
// keys as raw bytes yields exactly document order. This holds because the
// separator '.' (0x2E) is smaller than every alphabet byte, so an ancestor
// (a strict prefix at a component boundary) sorts immediately before its
// descendants, and descendants of an earlier sibling sort before the later
// sibling.
//
// The encoding supports insertion of new siblings between any two existing
// siblings without renumbering (see Between), which is what keeps index
// statistics valid under document updates — a property the VAMANA cost
// model depends on.
package flex

import (
	"bytes"
	"strings"
)

// Key is the dotted serialization of a FLEX key. The empty string is not a
// valid key; it is used as the "no key" / virtual-super-root sentinel.
type Key string

// Root is the key of the document node. Every other node in a document is a
// descendant of Root.
const Root Key = "a"

// sep separates components. It must be smaller than every alphabet byte for
// byte comparison to equal document order.
const sep = '.'

// subtreeSentinel terminates a subtree range. It must be strictly greater
// than sep and strictly smaller than every alphabet byte.
const subtreeSentinel = '/'

// SubtreeSentinel is the byte SubtreeUpper appends, exported so byte-level
// range builders can extend a raw key in place instead of materializing
// key + sentinel strings.
const SubtreeSentinel byte = subtreeSentinel

// Sep is the component separator byte, exported (like SubtreeSentinel) so
// byte-level range builders can form DescLower bounds in place.
const Sep byte = sep

// Valid reports whether k is a well-formed FLEX key: one or more valid
// components joined by '.'.
func (k Key) Valid() bool {
	if len(k) == 0 {
		return false
	}
	start := 0
	s := string(k)
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == sep {
			if !validComponent(s[start:i]) {
				return false
			}
			start = i + 1
		}
	}
	return true
}

func validComponent(c string) bool {
	// A component must not end in 'a' (the zero digit), so that a sibling
	// can always be inserted between any two components (see Between).
	// The single-character component "a" is allowed as a special case: it
	// is the root component, and the root never has siblings.
	if len(c) == 0 || (len(c) > 1 && c[len(c)-1] == minDigit) {
		return false
	}
	for i := 0; i < len(c); i++ {
		if c[i] < 'a' || c[i] > 'z' {
			return false
		}
	}
	return true
}

// Compare returns -1, 0, or +1 as k sorts before, equal to, or after o in
// document order. Document order equals raw byte order of the serialized
// keys; this function exists to make call sites self-documenting.
func (k Key) Compare(o Key) int {
	switch {
	case k < o:
		return -1
	case k > o:
		return 1
	default:
		return 0
	}
}

// Parent returns the key of k's parent, or "" if k is the root (or empty).
func (k Key) Parent() Key {
	i := strings.LastIndexByte(string(k), sep)
	if i < 0 {
		return ""
	}
	return k[:i]
}

// Depth returns the number of components in k. The root has depth 1; the
// empty key has depth 0.
func (k Key) Depth() int {
	if len(k) == 0 {
		return 0
	}
	return strings.Count(string(k), string(rune(sep))) + 1
}

// LastComponent returns the final component of k, or "" for the empty key.
func (k Key) LastComponent() Component {
	i := strings.LastIndexByte(string(k), sep)
	return Component(k[i+1:])
}

// Child returns the key formed by appending component c to k.
func (k Key) Child(c Component) Key {
	if len(k) == 0 {
		return Key(c)
	}
	return k + Key(rune(sep)) + Key(c)
}

// IsAncestorOf reports whether k is a strict ancestor of d.
func (k Key) IsAncestorOf(d Key) bool {
	if len(k) == 0 {
		return len(d) != 0 // the virtual super-root is an ancestor of all keys
	}
	return len(d) > len(k)+1 && d[len(k)] == sep && d[:len(k)] == k
}

// DepthOf is Depth for a key still in raw index-entry bytes, letting scan
// filters reject entries without materializing a Key.
func DepthOf(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	return bytes.Count(b, []byte{sep}) + 1
}

// BytesIsAncestorOf reports whether the key in raw index-entry bytes b is
// a strict ancestor of d, without materializing a Key.
func BytesIsAncestorOf(b []byte, d Key) bool {
	if len(b) == 0 {
		return len(d) != 0
	}
	return len(d) > len(b)+1 && d[len(b)] == sep && string(d[:len(b)]) == string(b)
}

// DescLower returns the smallest byte string greater than k that every
// descendant key of k is >= to. The half-open range [k.DescLower(),
// k.SubtreeUpper()) covers exactly the descendants of k.
func (k Key) DescLower() Key { return k + Key(rune(sep)) }

// SubtreeUpper returns the exclusive upper bound of k's subtree: the
// smallest byte string greater than k and all of k's descendants. The
// half-open range [k, k.SubtreeUpper()) covers k and its descendants.
func (k Key) SubtreeUpper() Key { return k + Key(rune(subtreeSentinel)) }

// BytesAncestorAtDepth returns the ancestor-or-self at the given depth
// (1 = root) of the key in raw index-entry bytes b, as a prefix of b, or
// nil if depth exceeds b's depth or is < 1.
func BytesAncestorAtDepth(b []byte, depth int) []byte {
	if depth < 1 {
		return nil
	}
	n := 0
	for i, c := range b {
		if c == sep {
			n++
			if n == depth {
				return b[:i]
			}
		}
	}
	if n+1 == depth {
		return b
	}
	return nil
}
