package flex

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestRootProperties(t *testing.T) {
	if !Root.Valid() {
		t.Fatal("root key must be valid")
	}
	if got := Root.Parent(); got != "" {
		t.Fatalf("Root.Parent() = %q, want empty", got)
	}
	if got := Root.Depth(); got != 1 {
		t.Fatalf("Root.Depth() = %d, want 1", got)
	}
}

func TestValid(t *testing.T) {
	valid := []Key{"a", "a.d", "a.d.y", "a.d.y.c", "b", "zz.bb", "a.ab"}
	for _, k := range valid {
		if !k.Valid() {
			t.Errorf("Key(%q).Valid() = false, want true", k)
		}
	}
	invalid := []Key{"", ".", "a.", ".a", "a..b", "a.A", "a.1", "a.da.", "a.ba.c" /* component "ba" ends in 'a' */}
	for _, k := range invalid {
		if k.Valid() {
			t.Errorf("Key(%q).Valid() = true, want false", k)
		}
	}
}

func TestParentDepthChild(t *testing.T) {
	k := Key("a.d.y.c")
	if got := k.Parent(); got != "a.d.y" {
		t.Fatalf("Parent = %q", got)
	}
	if got := k.Depth(); got != 4 {
		t.Fatalf("Depth = %d", got)
	}
	if got := k.Parent().Child("c"); got != k {
		t.Fatalf("Child roundtrip = %q", got)
	}
	if got := k.LastComponent(); got != "c" {
		t.Fatalf("LastComponent = %q", got)
	}
	if got := Key("").Depth(); got != 0 {
		t.Fatalf("empty Depth = %d", got)
	}
}

func TestAncestry(t *testing.T) {
	a, d := Key("a.d.y"), Key("a.d.y.c.b")
	if !a.IsAncestorOf(d) {
		t.Fatal("a.d.y should be ancestor of a.d.y.c.b")
	}
	if a.IsAncestorOf(a) {
		t.Fatal("key is not its own strict ancestor")
	}
	// "a.d.yb" is a sibling-ish key, not a descendant of "a.d.y".
	if a.IsAncestorOf("a.d.yb") {
		t.Fatal("prefix without component boundary must not count as ancestor")
	}
	if !Key("").IsAncestorOf("a") {
		t.Fatal("virtual super-root is ancestor of root")
	}
}

func TestAncestorAtDepth(t *testing.T) {
	k := Key("a.d.y.c")
	cases := []struct {
		depth int
		want  Key
	}{{1, "a"}, {2, "a.d"}, {3, "a.d.y"}, {4, "a.d.y.c"}, {5, ""}, {0, ""}}
	for _, c := range cases {
		if got := BytesAncestorAtDepth([]byte(k), c.depth); string(got) != string(c.want) {
			t.Errorf("AncestorAtDepth(%d) = %q, want %q", c.depth, got, c.want)
		}
	}
}

// TestDocumentOrderEqualsByteOrder builds a random tree, assigns keys via
// Ordinal in pre-order, and verifies that sorting the serialized keys as
// plain strings reproduces pre-order (= document order) exactly. This is
// the central FLEX property everything above relies on.
func TestDocumentOrderEqualsByteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var preorder []Key
	var build func(k Key, depth int)
	build = func(k Key, depth int) {
		preorder = append(preorder, k)
		if depth >= 5 {
			return
		}
		nattr := rng.Intn(3)
		for i := 0; i < nattr; i++ {
			preorder = append(preorder, k.Child(AttrOrdinal(i)))
		}
		nkids := rng.Intn(30)
		for i := 0; i < nkids; i++ {
			if rng.Intn(3) == 0 {
				build(k.Child(Ordinal(i)), depth+1)
			} else {
				preorder = append(preorder, k.Child(Ordinal(i)))
			}
		}
	}
	build(Root, 1)

	sorted := append([]Key(nil), preorder...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := range preorder {
		if preorder[i] != sorted[i] {
			t.Fatalf("document order != byte order at %d: %q vs %q", i, preorder[i], sorted[i])
		}
	}
}

func TestSubtreeBounds(t *testing.T) {
	k := Key("a.d.y")
	inside := []Key{"a.d.y.b", "a.d.y.zz.b", "a.d.y.ab"}
	for _, d := range inside {
		if !(d > Key(k.DescLower()) || d >= k.DescLower()) || d >= k.SubtreeUpper() {
			t.Errorf("descendant %q outside [%q,%q)", d, k.DescLower(), k.SubtreeUpper())
		}
	}
	outside := []Key{"a.d.y", "a.d.z", "a.d", "a.e", "a.d.yb"}
	for _, o := range outside {
		if o >= k.DescLower() && o < k.SubtreeUpper() {
			t.Errorf("non-descendant %q inside subtree range of %q", o, k)
		}
	}
	// Self-inclusive range [k, upper) contains k.
	if !(k >= k && k < k.SubtreeUpper()) {
		t.Error("self not in subtree-or-self range")
	}
}

func TestOrdinalSequence(t *testing.T) {
	if Ordinal(0) != "b" || Ordinal(1) != "c" || Ordinal(23) != "y" {
		t.Fatalf("first level wrong: %q %q %q", Ordinal(0), Ordinal(1), Ordinal(23))
	}
	if Ordinal(24) != "zbb" {
		t.Fatalf("Ordinal(24) = %q, want zbb", Ordinal(24))
	}
	prev := Component("")
	for i := 0; i < 50000; i++ {
		c := Ordinal(i)
		if !validComponent(string(c)) {
			t.Fatalf("Ordinal(%d) = %q invalid", i, c)
		}
		if c <= prev {
			t.Fatalf("Ordinal not increasing at %d: %q <= %q", i, c, prev)
		}
		prev = c
	}
}

func TestAttrOrdinalSortsBeforeChildren(t *testing.T) {
	for i := 0; i < 1000; i++ {
		a := AttrOrdinal(i)
		if !validComponent(string(a)) {
			t.Fatalf("AttrOrdinal(%d) = %q invalid", i, a)
		}
		if a[0] != minDigit {
			t.Fatalf("AttrOrdinal(%d) = %q not in attr range", i, a)
		}
		if a >= Ordinal(0) {
			t.Fatalf("attr component %q does not sort before first child %q", a, Ordinal(0))
		}
	}
	if AttrOrdinal(0) >= AttrOrdinal(1) {
		t.Fatal("attr ordinals not increasing")
	}
}

func TestBetweenBasics(t *testing.T) {
	cases := []struct{ a, b Component }{
		{"", ""}, {"b", "c"}, {"b", "bb"}, {"", "b"}, {"z", ""}, {"y", ""},
		{"bz", "c"}, {"bn", "c"}, {"n", "nb"}, {"ab", "b"}, {"zzz", ""},
	}
	for _, c := range cases {
		m, err := Between(c.a, c.b)
		if err != nil {
			t.Fatalf("Between(%q,%q): %v", c.a, c.b, err)
		}
		if !validComponent(string(m)) {
			t.Fatalf("Between(%q,%q) = %q invalid", c.a, c.b, m)
		}
		if c.a != "" && m <= c.a {
			t.Fatalf("Between(%q,%q) = %q not above lower bound", c.a, c.b, m)
		}
		if c.b != "" && m >= c.b {
			t.Fatalf("Between(%q,%q) = %q not below upper bound", c.a, c.b, m)
		}
	}
	if _, err := Between("c", "c"); err == nil {
		t.Fatal("Between(c,c) should fail")
	}
	if _, err := Between("d", "c"); err == nil {
		t.Fatal("Between(d,c) should fail")
	}
}

// randomComponent produces a valid component for property tests.
func randomComponent(rng *rand.Rand) Component {
	n := 1 + rng.Intn(6)
	var b strings.Builder
	for i := 0; i < n; i++ {
		lo := byte('a')
		if i == n-1 {
			lo = 'b' // must not end in 'a'
		}
		b.WriteByte(lo + byte(rng.Intn(int('z'-lo)+1)))
	}
	return Component(b.String())
}

func TestBetweenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		a, b := randomComponent(rng), randomComponent(rng)
		if a > b {
			a, b = b, a
		}
		if a == b {
			continue
		}
		m, err := Between(a, b)
		if err != nil {
			t.Fatalf("Between(%q,%q): %v", a, b, err)
		}
		if !(a < m && m < b) {
			t.Fatalf("Between(%q,%q) = %q out of bounds", a, b, m)
		}
		if !validComponent(string(m)) {
			t.Fatalf("Between(%q,%q) = %q invalid", a, b, m)
		}
	}
}

// TestBetweenDensity repeatedly subdivides the same interval to confirm the
// space never runs out (the property that lets MASS insert without
// renumbering).
func TestBetweenDensity(t *testing.T) {
	lo, hi := Component("b"), Component("c")
	for i := 0; i < 200; i++ {
		m, err := Between(lo, hi)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !(lo < m && m < hi) {
			t.Fatalf("iteration %d: %q not in (%q,%q)", i, m, lo, hi)
		}
		if i%2 == 0 {
			lo = m
		} else {
			hi = m
		}
	}
	if len(lo) > 220 {
		t.Fatalf("keys grew pathologically: %d bytes", len(lo))
	}
}

func TestAfter(t *testing.T) {
	cases := []Component{"", "b", "n", "y", "z", "az", "zy", "ab"}
	for _, c := range cases {
		a := After(c)
		if !validComponent(string(a)) {
			t.Fatalf("After(%q) = %q invalid", c, a)
		}
		if c != "" && a <= c {
			t.Fatalf("After(%q) = %q not greater", c, a)
		}
	}
}

func TestAfterQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComponent(rng)
		a := After(c)
		return a > c && validComponent(string(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	if Key("a.d").Compare("a.d.b") != -1 {
		t.Fatal("ancestor must precede descendant")
	}
	if Key("a.d.y").Compare("a.d.y") != 0 {
		t.Fatal("equal keys")
	}
	if Key("a.e").Compare("a.d/") != 1 {
		t.Fatal("subtree sentinel must sort before following sibling")
	}
}
