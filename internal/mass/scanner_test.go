package mass

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/xmldoc"
)

// drainAll pulls a bound scan dry in batches of 7 keys, returning the
// keys delivered before any error along with it. It is safe to call from
// any goroutine.
func drainAll(sc *Scanner) ([]flex.Key, error) {
	var out []flex.Key
	buf := make([]flex.Key, 7)
	for {
		n, err := sc.NextKeys(buf)
		out = append(out, buf[:n]...)
		if err != nil || n < len(buf) {
			return out, err
		}
	}
}

// drainKeys is drainAll failing the test on a scan error.
func drainKeys(t *testing.T, sc *Scanner) []flex.Key {
	t.Helper()
	out, err := drainAll(sc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReboundScannerAgainstOracle is TestAllAxesAgainstOracle for the way
// the executor actually scans: ONE Scanner per (axis, test), rebound to
// every node of the document in turn, so each binding starts from the
// cursor position, ancestor stack and context-kind hint the previous one
// left. Contexts arrive in document order (the merge case), in reverse
// (what a reverse axis upstream delivers) and shuffled (every seek leaves
// the held leaf); with the true context kind hinted and without. Every
// binding must still equal the brute-force oracle.
func TestReboundScannerAgainstOracle(t *testing.T) {
	src := randomXML(1234, 300)
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
		{Type: TestName, Name: "id"},
		{Type: TestWildcard},
		{Type: TestText},
		{Type: TestNode},
	}
	orders := map[string][]xmldoc.Node{"document": ref.nodes}
	rev := make([]xmldoc.Node, len(ref.nodes))
	for i, n := range ref.nodes {
		rev[len(rev)-1-i] = n
	}
	orders["reverse"] = rev
	shuf := append([]xmldoc.Node(nil), ref.nodes...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	orders["shuffled"] = shuf

	checked := 0
	for order, ctxs := range orders {
		for _, hinted := range []bool{false, true} {
			for _, ax := range axes {
				for _, nt := range tests {
					var sc Scanner
					for _, cn := range ctxs {
						sc.SetContextKind(cn.Kind, hinted)
						got := drainKeys(t, cur(s).BindScan(&sc, d, cn.Key, ax, nt))
						want := keysOf(ref.axis(cn.Key, ax, nt))
						if !equalKeys(got, want) {
							t.Fatalf("%s order, hinted=%v: axis %s::%s from %q (%s %s):\n got  %v\n want %v",
								order, hinted, ax, nt, cn.Key, cn.Kind, cn.Name, got, want)
						}
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d rebound bindings equal the oracle", checked)
}

// TestIndexOnlyAxesDecodeNothing pins the point of the index-only tests:
// name and wildcard tests on the self, parent and ancestor axes — and the
// sibling axes once the context kind is hinted — and descendant::text()
// read no clustered record, while the tests that need the record still do.
func TestIndexOnlyAxesDecodeNothing(t *testing.T) {
	src := randomXML(77, 300)
	ref := buildRef(t, src)
	s := openMem(t)
	d := loadDoc(t, s, "rand", src)

	run := func(ax Axis, nt NodeTest, hinted bool) uint64 {
		var tl Tally
		var sc Scanner
		sc.SetTally(&tl)
		for _, cn := range ref.nodes {
			sc.SetContextKind(cn.Kind, hinted)
			drainKeys(t, cur(s).BindScan(&sc, d, cn.Key, ax, nt))
		}
		return tl.RecordsDecoded
	}
	name, star := NodeTest{Type: TestName, Name: "alpha"}, NodeTest{Type: TestWildcard}
	for _, ax := range []Axis{AxisSelf, AxisParent, AxisAncestor, AxisAncestorOrSelf} {
		for _, nt := range []NodeTest{name, star} {
			if n := run(ax, nt, false); n != 0 {
				t.Errorf("%s::%s decoded %d records, want 0", ax, nt, n)
			}
		}
		if n := run(ax, NodeTest{Type: TestNode}, false); n == 0 {
			t.Errorf("%s::node() decoded no records: the test has lost its contrast", ax)
		}
	}
	// text() is answered from the texts index: a scan yields keys, and
	// the record is read only by a consumer that asks for the node.
	if n := run(AxisDescendant, NodeTest{Type: TestText}, false); n != 0 {
		t.Errorf("descendant::text() decoded %d records, want 0", n)
	}
	for _, ax := range []Axis{AxisFollowingSibling, AxisPrecedingSibling} {
		if n := run(ax, name, true); n != 0 {
			t.Errorf("%s::alpha with the context kind hinted decoded %d records, want 0", ax, n)
		}
		// Unhinted, the residual probe reads one record per context
		// that has a parent (all but the document node).
		if n, want := run(ax, name, false), uint64(len(ref.nodes)-1); n != want {
			t.Errorf("%s::alpha unhinted fetched %d records, want %d (one kind probe per context)", ax, n, want)
		}
	}
}

// TestKindProbeIsCharged is the governance half of the sibling-axis kind
// probe: it is a record fetch, so the query's limiter must see exactly what
// the scan's records-decoded tally sees, and its budget must be able to
// stop the scan.
func TestKindProbeIsCharged(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "p", personXML)
	streets := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: "street"}))
	if len(streets) != 2 {
		t.Fatalf("fixture has %d streets, want 2", len(streets))
	}
	var limMem, tightMem govern.Limiter
	lim := govern.ArmAccounting(&limMem, context.Background(), govern.Limits{})
	var tl Tally
	var sc Scanner
	sc.SetLimiter(lim)
	sc.SetTally(&tl)
	for _, st := range streets {
		drainKeys(t, cur(s).BindScan(&sc, d, st.Key, AxisFollowingSibling, NodeTest{Type: TestNode}))
	}
	stored := tl.RecordsDecoded
	if stored == 0 || lim.DecodedRecords() != stored {
		t.Errorf("limiter saw %d decoded records, the tally counted %d: they must agree and be non-zero",
			lim.DecodedRecords(), stored)
	}

	tight := govern.Arm(&tightMem, context.Background(), govern.Limits{MaxDecodedRecords: 1})
	sc.SetLimiter(tight)
	cur(s).BindScan(&sc, d, streets[0].Key, AxisFollowingSibling, NodeTest{Type: TestName, Name: "city"}) // kind probe: 1 record
	scan := cur(s).BindScan(&sc, d, streets[1].Key, AxisFollowingSibling, NodeTest{Type: TestName, Name: "city"})
	_, err := scan.NextKeys(make([]flex.Key, 4))
	var be *govern.BudgetError
	if !errors.As(err, &be) || be.Budget != "decoded-records" || be.Used != 2 {
		t.Errorf("second kind probe under MaxDecodedRecords=1: err = %v, want a decoded-records budget error with Used 2", err)
	}
}

// TestCorruptRecordSurfaces hand-corrupts one clustered value and checks
// every scan shape that decodes records reports it, typed — the node()
// range filter used to swallow it as "entry rejected".
func TestCorruptRecordSurfaces(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "p", personXML)
	cities := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: "city"}))
	if len(cities) == 0 {
		t.Fatal("fixture has no city")
	}
	victim := cities[0].Key
	// kind byte, then a name length that overruns the record.
	if _, err := s.clustered.Put(clusteredKey(d, victim), []byte{byte(xmldoc.KindElement), 0x7f, 'x'}); err != nil {
		t.Fatal(err)
	}
	s.changed = true
	if err := s.publishLocked(); err != nil {
		t.Fatal(err)
	}
	address := victim.Parent()
	for name, sc := range map[string]*Scanner{
		"descendant::node() (range filter)": s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestNode}),
		"child::node() (skip scan)":         s.AxisScan(d, address, AxisChild, NodeTest{Type: TestNode}),
		"self::node() (record probe)":       s.AxisScan(d, victim, AxisSelf, NodeTest{Type: TestNode}),
	} {
		if _, err := drainAll(sc); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s over a corrupt record: err = %v, want ErrCorruptRecord", name, err)
		}
	}
	// The index-only tests never look at the record, so they are the one
	// family the damage cannot reach.
	if got := drainKeys(t, s.AxisScan(d, victim, AxisSelf, NodeTest{Type: TestName, Name: "city"})); len(got) != 1 {
		t.Errorf("self::city answered from the names index returned %d nodes, want 1", len(got))
	}
}

// TestScannerReleaseDropsPosition checks Release leaves nothing a pooled
// scanner could carry into another view: a released scanner rebinds
// against the view a rename published and answers from it.
func TestScannerReleaseDropsPosition(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "p", personXML)
	name := NodeTest{Type: TestName, Name: "person"}
	watches := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: "watch"}))

	var sc Scanner
	for _, w := range watches {
		if got := drainKeys(t, cur(s).BindScan(&sc, d, w.Key, AxisAncestor, name)); len(got) != 1 {
			t.Fatalf("watch %q has %d person ancestors, want 1", w.Key, len(got))
		}
	}
	sc.Release()
	if sc.view != nil || sc.tree != nil || sc.lim != nil || sc.tally != nil || len(sc.ancKeys) != 0 {
		t.Errorf("Release left view=%v tree=%v lim=%v tally=%v stack=%d", sc.view, sc.tree, sc.lim, sc.tally, len(sc.ancKeys))
	}

	// Rename the person: the stack's remembered "is a person" for that
	// key is now wrong, and only a scanner that dropped it sees so.
	person := watches[0].Key.Parent().Parent()
	if err := update(s, func(u *Update) error { return u.RenameElement(d, person, "member") }); err != nil {
		t.Fatal(err)
	}
	if got := drainKeys(t, cur(s).BindScan(&sc, d, watches[0].Key, AxisAncestor, name)); len(got) != 0 {
		t.Errorf("after the rename a released scanner still found person ancestors: %v", got)
	}
	// And without Release: the commit published another view, which
	// BindScan observes by itself.
	if err := update(s, func(u *Update) error { return u.RenameElement(d, person, "person") }); err != nil {
		t.Fatal(err)
	}
	if got := drainKeys(t, cur(s).BindScan(&sc, d, watches[0].Key, AxisAncestor, name)); len(got) != 1 {
		t.Errorf("after renaming back an unreleased scanner found %d person ancestors, want 1", len(got))
	}
}

// valueShapesXML generates a document for the value-index shapes: text
// and attribute values drawn from a small pool of words, numbers and two
// values longer than the index's truncation length that share their
// indexed prefix, plus namespace declarations (prefixed and default,
// some shadowing an ancestor's) on some elements.
func valueShapesXML(seed int64, elems int) string {
	rng := rand.New(rand.NewSource(seed))
	long := strings.Repeat("v", maxIndexedValue+10)
	pool := []string{"red", "blue", "7", "12.5", "-3", "100", "0.25", long + "ONE", long + "TWO"}
	names := []string{"alpha", "beta", "gamma"}
	var b strings.Builder
	b.WriteString(`<root xmlns:p="urn:root">`)
	var stack []string
	for i := 0; i < elems; i++ {
		if len(stack) > 0 && rng.Intn(3) == 0 {
			b.WriteString("</" + stack[len(stack)-1] + ">")
			stack = stack[:len(stack)-1]
			continue
		}
		n := names[rng.Intn(len(names))]
		b.WriteString("<" + n)
		switch rng.Intn(6) {
		case 0:
			b.WriteString(` xmlns:p="urn:inner"`)
		case 1:
			b.WriteString(` xmlns="urn:default" xmlns:q="urn:q"`)
		}
		for _, a := range []string{"id", "class"} {
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, " %s=%q", a, pool[rng.Intn(len(pool))])
			}
		}
		b.WriteString(">")
		if rng.Intn(2) == 0 {
			b.WriteString(pool[rng.Intn(len(pool))])
		}
		stack = append(stack, n)
	}
	for len(stack) > 0 {
		b.WriteString("</" + stack[len(stack)-1] + ">")
		stack = stack[:len(stack)-1]
	}
	b.WriteString("</root>")
	return b.String()
}

// TestReboundValueShapesAgainstBruteForce is TestReboundScannerAgainstOracle
// for the shapes that read the values index or precompute their keys:
// value::, attr-value:: (with and without an attribute name), num-range
// and namespace::. One Scanner per shape and literal is rebound to every
// node in document and shuffled order, and each binding must equal a
// brute-force pass over Store.Node of every key of the document. A second
// document with overlapping numbers is loaded first, so a numeric range
// spans entries of both.
func TestReboundValueShapesAgainstBruteForce(t *testing.T) {
	src := valueShapesXML(42, 400)
	s := openMem(t)
	loadDoc(t, s, "other", valueShapesXML(43, 200))
	d := loadDoc(t, s, "vals", src)
	var nodes []xmldoc.Node
	for _, r := range buildRef(t, src).nodes {
		n, ok, err := s.Node(d, r.Key)
		if err != nil || !ok {
			t.Fatalf("Store.Node(%q) = %v, %v", r.Key, ok, err)
		}
		nodes = append(nodes, n)
	}
	within := func(ctx, k flex.Key) bool { return k == ctx || ctx.IsAncestorOf(k) }
	brute := func(ctx flex.Key, keep func(xmldoc.Node) bool) []flex.Key {
		var out []flex.Key
		for _, n := range nodes {
			if within(ctx, n.Key) && keep(n) {
				out = append(out, n.Key)
			}
		}
		return out
	}
	type shape struct {
		name string
		bind func(sc *Scanner, ctx flex.Key) *Scanner
		want func(ctx flex.Key) []flex.Key
	}
	var shapes []shape
	// Every literal but "absent" and the bare shared prefix of the two
	// long values is in the document.
	long := strings.Repeat("v", maxIndexedValue+10)
	for _, lit := range []struct{ label, value string }{
		{"red", "red"}, {"7", "7"}, {"long ONE", long + "ONE"}, {"long TWO", long + "TWO"},
		{"long prefix (absent)", long}, {"absent", "absent"},
	} {
		shapes = append(shapes, shape{
			name: "value::" + lit.label,
			bind: func(sc *Scanner, ctx flex.Key) *Scanner {
				return cur(s).BindScan(sc, d, ctx, AxisValue, NodeTest{Name: lit.value})
			},
			want: func(ctx flex.Key) []flex.Key {
				return brute(ctx, func(n xmldoc.Node) bool { return n.Kind == xmldoc.KindText && n.Value == lit.value })
			},
		})
		for _, attr := range []string{"", "id"} {
			shapes = append(shapes, shape{
				name: fmt.Sprintf("attr-value::%s (attribute %q)", lit.label, attr),
				bind: func(sc *Scanner, ctx flex.Key) *Scanner {
					return cur(s).BindScan(sc, d, ctx, AxisAttrValue, NodeTest{Name: lit.value, Attr: attr})
				},
				want: func(ctx flex.Key) []flex.Key {
					return brute(ctx, func(n xmldoc.Node) bool {
						return n.Kind == xmldoc.KindAttribute && n.Value == lit.value && (attr == "" || n.Name == attr)
					})
				},
			})
		}
	}
	for _, r := range []struct {
		lo, hi         float64
		loIncl, hiIncl bool
	}{
		{math.Inf(-1), math.Inf(1), true, true},
		{7, 100, true, false},
		{-3, 12.5, false, true},
		{0, 1, true, true},
	} {
		shapes = append(shapes, shape{
			name: fmt.Sprintf("num-range %v", r),
			bind: func(sc *Scanner, ctx flex.Key) *Scanner {
				return cur(s).BindNumRange(sc, d, ctx, r.lo, r.loIncl, r.hi, r.hiIncl)
			},
			want: func(ctx flex.Key) []flex.Key {
				// Numeric order, then document order among equal values.
				var hits []xmldoc.Node
				for _, n := range nodes {
					f, ok := numericValue(n.Value)
					if n.Kind == xmldoc.KindText && ok && within(ctx, n.Key) &&
						(f > r.lo || r.loIncl && f == r.lo) && (f < r.hi || r.hiIncl && f == r.hi) {
						hits = append(hits, n)
					}
				}
				sort.SliceStable(hits, func(i, j int) bool {
					fi, _ := numericValue(hits[i].Value)
					fj, _ := numericValue(hits[j].Value)
					return fi < fj
				})
				return keysOf(hits)
			},
		})
	}
	for _, nt := range []NodeTest{{Type: TestName, Name: "p"}, {Type: TestName, Name: ""}, {Type: TestWildcard}, {Type: TestNode}} {
		shapes = append(shapes, shape{
			name: "namespace::" + nt.String(),
			bind: func(sc *Scanner, ctx flex.Key) *Scanner {
				return cur(s).BindScan(sc, d, ctx, AxisNamespace, nt)
			},
			want: func(ctx flex.Key) []flex.Key {
				// Declarations on ctx or its nearest ancestor, one per
				// prefix, nearest first.
				var out []flex.Key
				seen := map[string]bool{}
				for k := ctx; k != ""; k = k.Parent() {
					for _, n := range nodes {
						if n.Key.Parent() != k || n.Kind != xmldoc.KindNamespace || seen[n.Name] {
							continue
						}
						seen[n.Name] = true
						if nt.Matches(n, xmldoc.KindNamespace) {
							out = append(out, n.Key)
						}
					}
				}
				return out
			},
		})
	}

	shuf := append([]xmldoc.Node(nil), nodes...)
	rand.New(rand.NewSource(9)).Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	nonEmpty := map[string]bool{}
	for _, sh := range shapes {
		for _, ctxs := range [][]xmldoc.Node{nodes, shuf} {
			var sc Scanner
			for _, cn := range ctxs {
				got := drainKeys(t, sh.bind(&sc, cn.Key))
				if want := sh.want(cn.Key); !equalKeys(got, want) {
					t.Fatalf("%s from %q (%s %s):\n got  %v\n want %v", sh.name, cn.Key, cn.Kind, cn.Name, got, want)
				}
				if len(got) > 0 {
					nonEmpty[sh.name] = true
				}
			}
		}
	}
	for _, sh := range shapes {
		if !nonEmpty[sh.name] && !strings.Contains(sh.name, "absent") {
			t.Errorf("%s found nothing from any context: the fixture does not exercise it", sh.name)
		}
	}
}
