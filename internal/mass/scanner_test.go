package mass

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/xmldoc"
)

// drainKeys pulls a bound scan dry through the batched interface the
// executor uses.
func drainKeys(t *testing.T, sc *Scan) []flex.Key {
	t.Helper()
	var out []flex.Key
	buf := make([]flex.Key, 7)
	for {
		n, err := sc.NextKeys(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			t.Fatal(err)
		}
		if n < len(buf) {
			return out
		}
	}
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
						got := drainKeys(t, s.BindScan(&sc, d, cn.Key, ax, nt))
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
// sibling axes once the context kind is hinted — read no clustered record,
// while the tests that need the record still do.
func TestIndexOnlyAxesDecodeNothing(t *testing.T) {
	src := randomXML(77, 300)
	ref := buildRef(t, src)
	s := openMem(t)
	d := loadDoc(t, s, "rand", src)

	run := func(ax Axis, nt NodeTest, hinted bool) uint64 {
		before := s.Metrics().RecordsDecoded
		var sc Scanner
		for _, cn := range ref.nodes {
			sc.SetContextKind(cn.Kind, hinted)
			drainKeys(t, s.BindScan(&sc, d, cn.Key, ax, nt))
		}
		return s.Metrics().RecordsDecoded - before
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
	for _, ax := range []Axis{AxisFollowingSibling, AxisPrecedingSibling} {
		if n := run(ax, name, true); n != 0 {
			t.Errorf("%s::alpha with the context kind hinted decoded %d records, want 0", ax, n)
		}
		// Unhinted, the residual probe reads one kind byte per context
		// that has a parent (all but the document node).
		if n, want := run(ax, name, false), uint64(len(ref.nodes)-1); n != want {
			t.Errorf("%s::alpha unhinted fetched %d records, want %d (one kind probe per context)", ax, n, want)
		}
	}
}

// TestKindProbeIsCharged is the governance half of the sibling-axis kind
// probe: it is a record fetch, so the query's limiter must see exactly what
// the store's records-decoded counter sees, and its budget must be able to
// stop the scan.
func TestKindProbeIsCharged(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "p", personXML)
	streets := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: "street"}))
	if len(streets) != 2 {
		t.Fatalf("fixture has %d streets, want 2", len(streets))
	}
	lim := govern.NewAccounting(context.Background(), govern.Limits{})
	defer govern.Release(lim)
	before := s.Metrics().RecordsDecoded
	var sc Scanner
	sc.SetLimiter(lim)
	for _, st := range streets {
		drainKeys(t, s.BindScan(&sc, d, st.Key, AxisFollowingSibling, NodeTest{Type: TestNode}))
	}
	stored := s.Metrics().RecordsDecoded - before
	if stored == 0 || lim.DecodedRecords() != stored {
		t.Errorf("limiter saw %d decoded records, the store counted %d: they must agree and be non-zero",
			lim.DecodedRecords(), stored)
	}

	tight := govern.New(context.Background(), govern.Limits{MaxDecodedRecords: 1})
	defer govern.Release(tight)
	sc.SetLimiter(tight)
	s.BindScan(&sc, d, streets[0].Key, AxisFollowingSibling, NodeTest{Type: TestName, Name: "city"}) // kind probe: 1 record
	scan := s.BindScan(&sc, d, streets[1].Key, AxisFollowingSibling, NodeTest{Type: TestName, Name: "city"})
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
	address := victim.Parent()
	for name, sc := range map[string]*Scan{
		"descendant::node() (range filter)": s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestNode}),
		"child::node() (skip scan)":         s.AxisScan(d, address, AxisChild, NodeTest{Type: TestNode}),
		"self::node() (record probe)":       s.AxisScan(d, victim, AxisSelf, NodeTest{Type: TestNode}),
	} {
		for {
			if _, ok := sc.Next(); !ok {
				break
			}
		}
		if err := sc.Err(); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s over a corrupt record: err = %v, want ErrCorruptRecord", name, err)
		}
	}
	// The index-only tests never look at the record, so they are the one
	// family the damage cannot reach.
	if got := collect(t, s.AxisScan(d, victim, AxisSelf, NodeTest{Type: TestName, Name: "city"})); len(got) != 1 {
		t.Errorf("self::city answered from the names index returned %d nodes, want 1", len(got))
	}
}

// TestScannerReleaseDropsPosition checks Release leaves nothing a pooled
// scanner could carry into another store version: a released scanner
// rebinds against a different store (here: a snapshot taken after an
// insert) and answers from it.
func TestScannerReleaseDropsPosition(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "p", personXML)
	name := NodeTest{Type: TestName, Name: "person"}
	watches := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: "watch"}))

	var sc Scanner
	for _, w := range watches {
		if got := drainKeys(t, s.BindScan(&sc, d, w.Key, AxisAncestor, name)); len(got) != 1 {
			t.Fatalf("watch %q has %d person ancestors, want 1", w.Key, len(got))
		}
	}
	sc.Release()
	if sc.store != nil || sc.tree != nil || sc.lim != nil || len(sc.ancKeys) != 0 {
		t.Errorf("Release left store=%v tree=%v lim=%v stack=%d", sc.store, sc.tree, sc.lim, len(sc.ancKeys))
	}

	// Rename the person: the stack's remembered "is a person" for that
	// key is now wrong, and only a scanner that dropped it sees so.
	person := watches[0].Key.Parent().Parent()
	if err := update(s, func(u *Update) error { return u.RenameElement(d, person, "member") }); err != nil {
		t.Fatal(err)
	}
	if got := drainKeys(t, s.BindScan(&sc, d, watches[0].Key, AxisAncestor, name)); len(got) != 0 {
		t.Errorf("after the rename a released scanner still found person ancestors: %v", got)
	}
	// And without Release: the store generation moved, which BindScan
	// observes by itself.
	if err := update(s, func(u *Update) error { return u.RenameElement(d, person, "person") }); err != nil {
		t.Fatal(err)
	}
	if got := drainKeys(t, s.BindScan(&sc, d, watches[0].Key, AxisAncestor, name)); len(got) != 1 {
		t.Errorf("after renaming back an unreleased scanner found %d person ancestors, want 1", len(got))
	}
}
