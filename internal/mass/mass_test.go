package mass

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vamana/internal/flex"
	"vamana/internal/xmldoc"
)

const personXML = `<site>
 <regions><europe/></regions>
 <people>
  <person id="person144">
   <name>Yung Flach</name>
   <emailaddress>Flach@auth.gr</emailaddress>
   <address>
    <street>92 Pfisterer St</street>
    <city>Monroe</city>
    <province>Vermont</province>
    <country>United States</country>
    <zipcode>12</zipcode>
   </address>
   <watches>
    <watch open_auction="open_auction108"/>
    <watch open_auction="open_auction94"/>
    <watch open_auction="open_auction110"/>
   </watches>
  </person>
  <person id="person145">
   <name>Jaak Tempesti</name>
   <address>
    <street>1 Curie Place</street>
    <city>Ottawa</city>
    <country>Canada</country>
    <zipcode>99</zipcode>
   </address>
  </person>
 </people>
</site>`

func openMem(t testing.TB) *Store {
	t.Helper()
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// cur is s's current view, unpinned: valid while s publishes nothing
// new, which holds for a test's reads between its writes.
func cur(s *Store) *View { return s.cur.Load() }

// update runs fn in one Update transaction on s — the store's only
// mutation path: committed when fn returns nil, rolled back (with fn's
// error returned) otherwise.
func update(s *Store, fn func(*Update) error) error {
	u, err := s.BeginUpdate()
	if err != nil {
		return err
	}
	if err := fn(u); err != nil {
		u.Rollback()
		return err
	}
	_, err = u.Commit()
	return err
}

func loadDoc(t testing.TB, s *Store, name, src string) DocID {
	t.Helper()
	d, err := s.LoadDocument(name, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// collect drains a scan and fetches the node behind every key it
// yielded with View.Node.
func collect(t *testing.T, sc *Scanner) []xmldoc.Node {
	t.Helper()
	var out []xmldoc.Node
	for _, k := range drainKeys(t, sc) {
		n, ok, err := sc.view.Node(sc.d, k)
		if err != nil || !ok {
			t.Fatalf("scan yielded %q, which has no node (%v)", k, err)
		}
		out = append(out, n)
	}
	return out
}

func keysOf(ns []xmldoc.Node) []flex.Key {
	out := make([]flex.Key, len(ns))
	for i, n := range ns {
		out[i] = n.Key
	}
	return out
}

func TestLoadAndFetch(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "person", personXML)
	n, ok, err := s.Node(d, flex.Root)
	if err != nil || !ok {
		t.Fatalf("root fetch: %v %v", ok, err)
	}
	if n.Kind != xmldoc.KindDocument {
		t.Fatalf("root kind = %v", n.Kind)
	}
	if _, ok, _ := s.Node(d, "a.zz.zz"); ok {
		t.Fatal("phantom node found")
	}
}

func TestDuplicateDocumentName(t *testing.T) {
	s := openMem(t)
	loadDoc(t, s, "doc", personXML)
	if _, err := s.LoadDocument("doc", strings.NewReader(personXML)); err == nil {
		t.Fatal("duplicate load succeeded")
	}
}

func TestFailedLoadLeavesNoResidue(t *testing.T) {
	s := openMem(t)
	if _, err := s.LoadDocument("bad", strings.NewReader("<a><b></a>")); err == nil {
		t.Fatal("malformed load succeeded")
	}
	st, err := cur(s).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 0 || st.Elements != 0 {
		t.Fatalf("residue after failed load: %+v", st)
	}
	// The name must be reusable.
	if _, err := s.LoadDocument("bad", strings.NewReader("<a/>")); err != nil {
		t.Fatalf("reload after failure: %v", err)
	}
}

func TestBasicCounts(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "person", personXML)
	cases := []struct {
		name string
		want uint64
	}{
		{"person", 2}, {"name", 2}, {"address", 2}, {"watch", 3},
		{"province", 1}, {"site", 1}, {"nosuch", 0},
	}
	for _, c := range cases {
		got, err := s.CountName(d, c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("CountName(%q) = %d, want %d", c.name, got, c.want)
		}
	}
	if got, _ := cur(s).CountAttrName(d, "open_auction"); got != 3 {
		t.Errorf("CountAttrName(open_auction) = %d, want 3", got)
	}
	if got, _ := cur(s).CountAttrName(d, "id"); got != 2 {
		t.Errorf("CountAttrName(id) = %d, want 2", got)
	}
	if got, _ := cur(s).TextCount(d, "Yung Flach", ""); got != 1 {
		t.Errorf("TextCount(Yung Flach) = %d, want 1", got)
	}
	if got, _ := cur(s).TextCount(d, "nothing here", ""); got != 0 {
		t.Errorf("TextCount(miss) = %d, want 0", got)
	}
}

func TestSubtreeCounts(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "person", personXML)
	// Find the first person's key.
	sc := s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: "person"})
	persons := collect(t, sc)
	if len(persons) != 2 {
		t.Fatalf("persons = %d", len(persons))
	}
	p1 := persons[0].Key
	if got, _ := cur(s).CountNameWithin(d, "street", p1); got != 1 {
		t.Errorf("street within person1 = %d, want 1", got)
	}
	if got, _ := cur(s).CountNameWithin(d, "watch", p1); got != 3 {
		t.Errorf("watch within person1 = %d, want 3", got)
	}
	p2 := persons[1].Key
	if got, _ := cur(s).CountNameWithin(d, "watch", p2); got != 0 {
		t.Errorf("watch within person2 = %d, want 0", got)
	}
	if got, _ := cur(s).TextCount(d, "Ottawa", p2); got != 1 {
		t.Errorf("TextCount(Ottawa, person2) = %d, want 1", got)
	}
	if got, _ := cur(s).TextCount(d, "Ottawa", p1); got != 0 {
		t.Errorf("TextCount(Ottawa, person1) = %d, want 0", got)
	}
}

func TestDatabaseWideCounts(t *testing.T) {
	s := openMem(t)
	loadDoc(t, s, "d1", personXML)
	loadDoc(t, s, "d2", personXML)
	if got, _ := s.CountName(0, "person"); got != 4 {
		t.Errorf("db-wide person count = %d, want 4", got)
	}
	if got, _ := cur(s).TextCount(0, "Yung Flach", ""); got != 2 {
		t.Errorf("db-wide TC = %d, want 2", got)
	}
}

func TestValueScan(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "person", personXML)
	got := collect(t, s.AxisScan(d, "", AxisValue, NodeTest{Name: "Yung Flach"}))
	if len(got) != 1 {
		t.Fatalf("value::'Yung Flach' hits = %d, want 1", len(got))
	}
	if got[0].Kind != xmldoc.KindText || got[0].Value != "Yung Flach" {
		t.Fatalf("hit = %+v", got[0])
	}
	// Parent of the text node is the name element.
	n, ok, _ := s.Node(d, got[0].Key.Parent())
	if !ok || n.Name != "name" {
		t.Fatalf("value hit parent = %+v", n)
	}
	if hits := collect(t, s.AxisScan(d, "", AxisValue, NodeTest{Name: "Vermont"})); len(hits) != 1 {
		t.Fatalf("Vermont hits = %d", len(hits))
	}
	if hits := collect(t, s.AxisScan(d, "", AxisValue, NodeTest{Name: "absent"})); len(hits) != 0 {
		t.Fatalf("absent hits = %d", len(hits))
	}
}

func TestAttrValueScan(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "person", personXML)
	hits := collect(t, s.AxisScan(d, "", AxisAttrValue, NodeTest{Name: "open_auction108"}))
	if len(hits) != 1 || hits[0].Name != "open_auction" {
		t.Fatalf("attr value hits = %+v", hits)
	}
}

func TestLongValueTruncation(t *testing.T) {
	s := openMem(t)
	long1 := strings.Repeat("x", 300) + "SUFFIX-ONE"
	long2 := strings.Repeat("x", 300) + "SUFFIX-TWO"
	src := fmt.Sprintf("<a><b>%s</b><c>%s</c></a>", long1, long2)
	d := loadDoc(t, s, "long", src)
	// Both share the first 256 bytes, so TC is an upper bound...
	tc, _ := cur(s).TextCount(d, long1, "")
	if tc != 2 {
		t.Fatalf("truncated TC = %d, want 2 (upper bound)", tc)
	}
	// ...but the scan verifies and returns exactly one.
	hits := collect(t, s.AxisScan(d, "", AxisValue, NodeTest{Name: long1}))
	if len(hits) != 1 || hits[0].Value != long1 {
		t.Fatalf("verified hits = %d", len(hits))
	}
}

func TestStringValue(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "person", personXML)
	persons := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: "name"}))
	sv, err := cur(s).StringValue(d, persons[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	if sv != "Yung Flach" {
		t.Fatalf("StringValue(name) = %q", sv)
	}
	// Element with nested text.
	addr := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: "address"}))
	sv, _ = cur(s).StringValue(d, addr[1].Key)
	want := "1 Curie PlaceOttawaCanada99"
	if sv != want {
		t.Fatalf("StringValue(address2) = %q, want %q", sv, want)
	}
}

// --- Reference oracle ------------------------------------------------

// refDoc is a naive in-memory model built directly from the shredder
// stream. Every axis is computed by brute force over the node list, then
// compared against the store's index-based scans.
type refDoc struct {
	nodes []xmldoc.Node // document order
	byKey map[flex.Key]xmldoc.Node
}

func buildRef(t testing.TB, src string) *refDoc {
	t.Helper()
	r := &refDoc{byKey: map[flex.Key]xmldoc.Node{}}
	if err := xmldoc.Parse(strings.NewReader(src), func(n xmldoc.Node) error {
		r.nodes = append(r.nodes, n)
		r.byKey[n.Key] = n
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *refDoc) isAttrLike(n xmldoc.Node) bool {
	return n.Kind == xmldoc.KindAttribute || n.Kind == xmldoc.KindNamespace
}

// axis returns the reference node set for axis::test from ctx, in axis
// order.
func (r *refDoc) axis(ctx flex.Key, axis Axis, test NodeTest) []xmldoc.Node {
	var out []xmldoc.Node
	principal := axis.Principal()
	add := func(n xmldoc.Node) {
		if test.Matches(n, principal) {
			out = append(out, n)
		}
	}
	cn := r.byKey[ctx]
	switch axis {
	case AxisSelf:
		if !r.isAttrLike(cn) || test.Type == TestNode {
			add(cn)
		}
	case AxisChild:
		for _, n := range r.nodes {
			if n.Key.Parent() == ctx && !r.isAttrLike(n) {
				add(n)
			}
		}
	case AxisDescendant, AxisDescendantOrSelf:
		// The context node itself is included whatever its kind (an
		// attribute context is reachable via self), though name and
		// wildcard tests still require the element principal.
		if axis == AxisDescendantOrSelf && (!r.isAttrLike(cn) || test.Type == TestNode) {
			add(cn)
		}
		for _, n := range r.nodes {
			if ctx.IsAncestorOf(n.Key) && !r.isAttrLike(n) {
				add(n)
			}
		}
	case AxisParent:
		if p := ctx.Parent(); p != "" {
			add(r.byKey[p])
		}
	case AxisAncestor, AxisAncestorOrSelf:
		if axis == AxisAncestorOrSelf && (!r.isAttrLike(cn) || test.Type == TestNode) {
			add(cn)
		}
		for p := ctx.Parent(); p != ""; p = p.Parent() {
			add(r.byKey[p])
		}
	case AxisFollowing:
		for _, n := range r.nodes {
			if n.Key > ctx && !ctx.IsAncestorOf(n.Key) && !r.isAttrLike(n) {
				add(n)
			}
		}
	case AxisPreceding:
		for i := len(r.nodes) - 1; i >= 0; i-- {
			n := r.nodes[i]
			if n.Key < ctx && !n.Key.IsAncestorOf(ctx) && !r.isAttrLike(n) {
				add(n)
			}
		}
	case AxisFollowingSibling:
		if r.isAttrLike(cn) {
			return nil
		}
		for _, n := range r.nodes {
			if n.Key.Parent() == ctx.Parent() && n.Key > ctx && !r.isAttrLike(n) {
				add(n)
			}
		}
	case AxisPrecedingSibling:
		if r.isAttrLike(cn) {
			return nil
		}
		for i := len(r.nodes) - 1; i >= 0; i-- {
			n := r.nodes[i]
			if n.Key.Parent() == ctx.Parent() && n.Key < ctx && !r.isAttrLike(n) {
				add(n)
			}
		}
	case AxisAttribute:
		for _, n := range r.nodes {
			if n.Key.Parent() == ctx && n.Kind == xmldoc.KindAttribute {
				add(n)
			}
		}
	}
	return out
}

// randomXML generates a deterministic pseudo-random document exercising
// nesting, repeated names, attributes, text and mixed content.
func randomXML(seed int64, elems int) string {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"alpha", "beta", "gamma", "delta", "eps"}
	var b strings.Builder
	b.WriteString("<root>")
	depth := 1
	var stack []string
	for i := 0; i < elems; i++ {
		switch {
		case depth > 1 && rng.Intn(4) == 0:
			b.WriteString("</" + stack[len(stack)-1] + ">")
			stack = stack[:len(stack)-1]
			depth--
		default:
			n := names[rng.Intn(len(names))]
			b.WriteString("<" + n)
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&b, " id=%q", fmt.Sprintf("v%d", rng.Intn(20)))
			}
			if rng.Intn(4) == 0 {
				fmt.Fprintf(&b, " class=%q", names[rng.Intn(len(names))])
			}
			b.WriteString(">")
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&b, "text%d", rng.Intn(30))
			}
			if rng.Intn(2) == 0 {
				b.WriteString("</" + n + ">")
			} else {
				stack = append(stack, n)
				depth++
			}
		}
	}
	for len(stack) > 0 {
		b.WriteString("</" + stack[len(stack)-1] + ">")
		stack = stack[:len(stack)-1]
	}
	b.WriteString("</root>")
	return b.String()
}

// TestAllAxesAgainstOracle is the central correctness test of MASS: for a
// random document, every axis is scanned from every node with several node
// tests and compared against the brute-force oracle.
func TestAllAxesAgainstOracle(t *testing.T) {
	src := randomXML(99, 400)
	ref := buildRef(t, src)
	s := openMem(t)
	d := loadDoc(t, s, "rand", src)

	axes := []Axis{
		AxisSelf, AxisChild, AxisDescendant, AxisDescendantOrSelf,
		AxisParent, AxisAncestor, AxisAncestorOrSelf,
		AxisFollowing, AxisFollowingSibling, AxisPreceding,
		AxisPrecedingSibling, AxisAttribute,
	}
	tests := []NodeTest{
		{Type: TestName, Name: "alpha"},
		{Type: TestName, Name: "beta"},
		{Type: TestName, Name: "id"}, // matters for the attribute axis
		{Type: TestWildcard},
		{Type: TestText},
		{Type: TestNode},
	}
	checked := 0
	for _, ctxNode := range ref.nodes {
		ctx := ctxNode.Key
		for _, ax := range axes {
			for _, nt := range tests {
				want := keysOf(ref.axis(ctx, ax, nt))
				got := drainKeys(t, s.AxisScan(d, ctx, ax, nt))
				if !equalKeys(got, want) {
					t.Fatalf("axis %s::%s from %q (%s %s):\n got  %v\n want %v",
						ax, nt, ctx, ctxNode.Kind, ctxNode.Name, got, want)
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("oracle comparison covered only %d combinations", checked)
	}
}

func equalKeys(a, b []flex.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCountsMatchScans checks that every statistics probe agrees with the
// cardinality of the corresponding scan on a random document.
func TestCountsMatchScans(t *testing.T) {
	src := randomXML(7, 800)
	s := openMem(t)
	d := loadDoc(t, s, "rand", src)
	ref := buildRef(t, src)

	for _, name := range []string{"alpha", "beta", "gamma", "delta", "eps", "root"} {
		want := len(collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: name})))
		got, err := s.CountName(d, name)
		if err != nil {
			t.Fatal(err)
		}
		if int(got) != want {
			t.Errorf("CountName(%q) = %d, scan = %d", name, got, want)
		}
	}
	// Subtree counts from random context nodes.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		ctxNode := ref.nodes[rng.Intn(len(ref.nodes))]
		if ctxNode.Kind != xmldoc.KindElement {
			continue
		}
		nt := NodeTest{Type: TestName, Name: "alpha"}
		scanned := len(collect(t, s.AxisScan(d, ctxNode.Key, AxisDescendant, nt)))
		if ctxNode.Name == "alpha" {
			scanned++ // CountNameWithin covers descendant-or-self
		}
		got, err := cur(s).CountNameWithin(d, "alpha", ctxNode.Key)
		if err != nil {
			t.Fatal(err)
		}
		if int(got) != scanned {
			t.Errorf("CountNameWithin(alpha, %q) = %d, scan = %d", ctxNode.Key, got, scanned)
		}
	}
	// Element totals.
	wantElems := 0
	for _, n := range ref.nodes {
		if n.Kind == xmldoc.KindElement {
			wantElems++
		}
	}
	if got, _ := cur(s).CountElements(d, ""); int(got) != wantElems {
		t.Errorf("CountElements = %d, want %d", got, wantElems)
	}
}

func TestTestCountDispatch(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "person", personXML)
	if got, _ := cur(s).TestCount(d, NodeTest{Type: TestName, Name: "watch"}, ""); got != 3 {
		t.Errorf("TestCount(watch) = %d", got)
	}
	elems, _ := cur(s).CountElements(d, "")
	if got, _ := cur(s).TestCount(d, NodeTest{Type: TestWildcard}, ""); got != elems {
		t.Errorf("TestCount(*) = %d, want %d", got, elems)
	}
	texts, _ := cur(s).CountTexts(d, "")
	if got, _ := cur(s).TestCount(d, NodeTest{Type: TestText}, ""); got != texts {
		t.Errorf("TestCount(text()) = %d, want %d", got, texts)
	}
}

func TestDropDocument(t *testing.T) {
	s := openMem(t)
	loadDoc(t, s, "keep", personXML)
	loadDoc(t, s, "drop", personXML)
	if err := s.DropDocument("drop"); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.CountName(0, "person"); got != 2 {
		t.Errorf("after drop, db-wide persons = %d, want 2", got)
	}
	if _, ok := s.DocID("drop"); ok {
		t.Error("dropped doc still resolvable")
	}
	if err := s.DropDocument("nosuch"); err == nil {
		t.Error("dropping unknown doc succeeded")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mass.vam")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	src := randomXML(5, 500)
	ref := buildRef(t, src)
	if _, err := s.LoadDocument("doc", strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	wantPersons, _ := s.CountName(1, "alpha")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d, ok := s2.DocID("doc")
	if !ok {
		t.Fatal("document lost after reopen")
	}
	if got, _ := s2.CountName(d, "alpha"); got != wantPersons {
		t.Fatalf("alpha count after reopen = %d, want %d", got, wantPersons)
	}
	// Spot-check an axis against the oracle after reopen.
	nt := NodeTest{Type: TestName, Name: "beta"}
	want := keysOf(ref.axis(flex.Root, AxisDescendant, nt))
	got := drainKeys(t, s2.AxisScan(d, flex.Root, AxisDescendant, nt))
	if !equalKeys(got, want) {
		t.Fatalf("descendant::beta after reopen mismatch: %d vs %d", len(got), len(want))
	}
}

func TestDocumentsSorted(t *testing.T) {
	s := openMem(t)
	loadDoc(t, s, "b", "<x/>")
	loadDoc(t, s, "a", "<x/>")
	docs := cur(s).Documents()
	sort.Strings(docs)
	if len(docs) != 2 || docs[0] != "a" || docs[1] != "b" {
		t.Fatalf("Documents = %v", docs)
	}
}
