package flex

import (
	"errors"
	"fmt"
	"strings"
)

// Component is a single level of a FLEX key: a non-empty string over
// 'a'..'z' that does not end in 'a'. Components within one parent are
// totally ordered lexicographically; between any two distinct components
// another component can always be constructed (see Between), which is what
// lets MASS insert siblings without renumbering.
type Component string

// Alphabet parameters for generated components. Ordinal encoding uses the
// digits minOrdDigit..maxOrdDigit (base ordBase) with a run of 'z' bytes as
// a length-class prefix, so longer encodings sort after all shorter ones.
const (
	minDigit    = 'a' // smallest alphabet byte; components must not end in it
	maxDigit    = 'z'
	minOrdDigit = 'b'
	maxOrdDigit = 'y'
	ordBase     = int(maxOrdDigit-minOrdDigit) + 1 // 24
)

// Ordinal returns the i-th (0-based) generated child component. The
// sequence is strictly increasing in lexicographic order:
//
//	b, c, ..., y, zbb, zbc, ..., zyy, zzbbb, ...
//
// Level L (1-based) consists of (L-1) 'z' bytes followed by L base-24
// digits drawn from 'b'..'y', giving 24^L values per level. Every level-L
// string sorts after every level-(L-1) string because the (L-1)-th byte of
// the former is 'z' while the latter has a digit < 'z' there (or has ended).
func Ordinal(i int) Component {
	if i < 0 {
		panic(fmt.Sprintf("flex: negative ordinal %d", i))
	}
	level := 1
	levelCap := ordBase
	for i >= levelCap {
		i -= levelCap
		level++
		if levelCap > (1<<31)/ordBase { // avoid overflow; depth this large is unreachable in practice
			panic("flex: ordinal out of range")
		}
		levelCap *= ordBase
	}
	var b strings.Builder
	b.Grow(2*level - 1)
	for j := 1; j < level; j++ {
		b.WriteByte(maxDigit)
	}
	digits := make([]byte, level)
	for j := level - 1; j >= 0; j-- {
		digits[j] = byte(minOrdDigit + i%ordBase)
		i /= ordBase
	}
	b.Write(digits)
	return Component(b.String())
}

// AttrOrdinal returns the i-th (0-based) generated attribute component.
// Attribute components are the element ordinal sequence prefixed with 'a',
// so every attribute of a node sorts before every non-attribute child of
// that node (generated child components start at 'b' or later) while
// remaining inside the node's subtree key range.
func AttrOrdinal(i int) Component {
	return Component(string(rune(minDigit))) + Ordinal(i)
}

// ErrNoRoom is returned by Between when no component exists strictly
// between the given bounds (only possible when a >= b).
var ErrNoRoom = errors.New("flex: no component strictly between bounds")

// Between returns a component strictly between a and b in lexicographic
// order. a may be "" to mean "unbounded below" and b may be "" to mean
// "unbounded above". The result never ends in 'a' and, like all
// components, contains only bytes in 'a'..'z'.
//
// The construction is the classic fractional-indexing midpoint over base-26
// digit strings with 'a' playing the role of zero: find the first position
// where the bounds differ, and either pick an intermediate digit or recurse
// into the gap below b.
func Between(a, b Component) (Component, error) {
	if b != "" && a >= b {
		return "", ErrNoRoom
	}
	var out []byte
	i := 0
	for {
		var da, db int
		if i < len(a) {
			da = int(a[i] - minDigit)
		}
		if i < len(b) {
			db = int(b[i] - minDigit)
		} else if b == "" {
			db = int(maxDigit-minDigit) + 1 // virtual digit above 'z'
		} else {
			// b is exhausted: since a < b and out so far is a prefix of
			// both, this cannot happen (a would not sort below b).
			return "", ErrNoRoom
		}
		if da == db {
			out = append(out, byte(minDigit+da))
			i++
			continue
		}
		if db-da >= 2 {
			// Room for a digit strictly between; pick the midpoint digit.
			mid := (da + db) / 2
			out = append(out, byte(minDigit+mid))
			return Component(out), nil
		}
		// db == da+1: no intermediate digit. Emit da and find something
		// strictly above the remainder of a (or above "" if a exhausted)
		// in the space below the implicit top.
		out = append(out, byte(minDigit+da))
		i++
		for {
			var ra int
			if i < len(a) {
				ra = int(a[i] - minDigit)
			}
			if ra < int(maxDigit-minDigit) {
				// pick a digit strictly above ra, as high as possible but
				// leaving room: midpoint between ra and top+1.
				mid := (ra + int(maxDigit-minDigit) + 1 + 1) / 2
				if mid <= ra {
					mid = ra + 1
				}
				out = append(out, byte(minDigit+mid))
				return Component(out), nil
			}
			out = append(out, maxDigit)
			i++
		}
	}
}

// After returns a component strictly greater than a. It is used when
// appending a sibling at the end of a node's child list, where any larger
// component is safe.
func After(a Component) Component {
	if a == "" {
		return Ordinal(0)
	}
	last := a[len(a)-1]
	if last < maxOrdDigit {
		return a[:len(a)-1] + Component(last+1)
	}
	return a + Component(rune(minOrdDigit))
}

// Before returns a component strictly smaller than b, or an error when no
// such component exists (b is the minimal component "b"... actually the
// space below any component except those collapsing onto all-'a' prefixes
// is non-empty; the error is returned when b <= the attribute floor given).
// floor is an exclusive lower bound ("" for unbounded).
func Before(floor, b Component) (Component, error) {
	return Between(floor, b)
}
