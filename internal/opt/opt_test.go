package opt

import (
	"sort"
	"strings"
	"testing"

	"vamana/internal/baseline/dom"
	"vamana/internal/cost"
	"vamana/internal/exec"
	"vamana/internal/flex"
	"vamana/internal/mass"
	"vamana/internal/plan"
	"vamana/internal/xmark"
	"vamana/internal/xpath"
)

func loadXMark(t testing.TB, factor float64) (*mass.Store, mass.DocID, string) {
	t.Helper()
	s, err := mass.Open(mass.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	src := xmark.GenerateString(xmark.Config{Factor: factor, Seed: 21})
	d, err := s.LoadDocument("auction", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return s, d, src
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

func contextSteps(p *plan.Plan) []*plan.Step {
	var out []*plan.Step
	for _, op := range p.ContextPath() {
		if s, ok := op.(*plan.Step); ok {
			out = append(out, s)
		}
	}
	return out
}

func TestCleanupSelfMerge(t *testing.T) {
	// Paper Fig. 5: descendant::name/parent::*/self::person/address.
	p := buildPlan(t, "/descendant::name/parent::*/self::person/address")
	Cleanup(p)
	steps := contextSteps(p)
	if len(steps) != 3 {
		t.Fatalf("after cleanup: %d steps\n%s", len(steps), p)
	}
	// Top-down: child::address <- parent::person <- descendant::name.
	if steps[0].Axis != mass.AxisChild || steps[0].Test.Name != "address" {
		t.Errorf("step0 = %s", steps[0].Label())
	}
	if steps[1].Axis != mass.AxisParent || steps[1].Test.Name != "person" {
		t.Errorf("merged step = %s, want parent::person", steps[1].Label())
	}
	if steps[2].Axis != mass.AxisDescendant || steps[2].Test.Name != "name" {
		t.Errorf("leaf = %s", steps[2].Label())
	}
}

func TestCleanupDoubleSlashCollapse(t *testing.T) {
	p := buildPlan(t, "//person/address")
	Cleanup(p)
	steps := contextSteps(p)
	if len(steps) != 2 {
		t.Fatalf("steps = %d\n%s", len(steps), p)
	}
	if steps[1].Axis != mass.AxisDescendant || steps[1].Test.Name != "person" {
		t.Errorf("leaf = %s, want descendant::person", steps[1].Label())
	}
}

func TestCleanupDotRemoval(t *testing.T) {
	p := buildPlan(t, "//person/./name")
	Cleanup(p)
	if got := len(contextSteps(p)); got != 2 {
		t.Fatalf("steps = %d\n%s", got, p)
	}
}

func TestCleanupInsidePredicates(t *testing.T) {
	p := buildPlan(t, "//person[.//province]")
	Cleanup(p)
	// The predicate's descendant-or-self::node()/child chain must also
	// collapse.
	person := contextSteps(p)[0]
	ex, ok := person.Preds[0].(*plan.Exist)
	if !ok {
		t.Fatalf("pred = %T", person.Preds[0])
	}
	inner, ok := ex.Pred.(*plan.Step)
	if !ok || inner.Axis != mass.AxisDescendant || inner.Test.Name != "province" {
		t.Fatalf("predicate subplan not cleaned: %s", p)
	}
}

func optimize(t testing.TB, s *mass.Store, d mass.DocID, expr string) (*plan.Plan, *plan.Plan) {
	t.Helper()
	p := buildPlan(t, expr)
	o := &Optimizer{Store: s, Doc: d}
	q, err := o.Optimize(p)
	if err != nil {
		t.Fatalf("optimize %q: %v", expr, err)
	}
	// Annotate the default plan too, for cost comparisons.
	est := &cost.Estimator{Store: cost.NewMemoProbes(s), Doc: d}
	Cleanup(p)
	if err := est.Estimate(p); err != nil {
		t.Fatal(err)
	}
	return p, q
}

// TestOptimizeQ1Shape checks the paper's Fig. 8 -> Fig. 11 outcome: the
// selective address step is pushed to the leaf with existential parent
// filters.
func TestOptimizeQ1Shape(t *testing.T) {
	s, d, _ := loadXMark(t, 0.01)
	_, q := optimize(t, s, d, "/descendant::name/parent::*/self::person/address")
	steps := contextSteps(q)
	if len(steps) != 1 {
		t.Fatalf("optimized context path has %d steps, want 1:\n%s", len(steps), q)
	}
	top := steps[0]
	if top.Axis != mass.AxisDescendant || top.Test.Name != "address" {
		t.Fatalf("top step = %s, want descendant::address\n%s", top.Label(), q)
	}
	if len(top.Preds) != 1 {
		t.Fatalf("top preds = %d\n%s", len(top.Preds), q)
	}
	ex := top.Preds[0].(*plan.Exist)
	parent := ex.Pred.(*plan.Step)
	if parent.Axis != mass.AxisParent || parent.Test.Name != "person" {
		t.Fatalf("pushed-down filter = %s\n%s", parent.Label(), q)
	}
	if len(parent.Preds) != 1 {
		t.Fatalf("parent::person should retain the child::name filter\n%s", q)
	}
}

// TestOptimizeQ2ValueIndex checks the Fig. 9 outcome: the value predicate
// becomes a value:: location step.
func TestOptimizeQ2ValueIndex(t *testing.T) {
	s, d, _ := loadXMark(t, 0.01)
	_, q := optimize(t, s, d, "//name[ text() = 'Yung Flach' ]/following-sibling::emailaddress")
	var valueStep *plan.Step
	for _, op := range q.Operators() {
		if st, ok := op.(*plan.Step); ok && st.Axis == mass.AxisValue {
			valueStep = st
		}
	}
	if valueStep == nil {
		t.Fatalf("no value:: step in optimized plan:\n%s", q)
	}
	if valueStep.Test.Name != "Yung Flach" {
		t.Fatalf("value step literal = %q", valueStep.Test.Name)
	}
	steps := contextSteps(q)
	// Chain: following-sibling::emailaddress <- parent::name <- value::.
	if steps[0].Axis != mass.AxisFollowingSibling {
		t.Fatalf("top step = %s\n%s", steps[0].Label(), q)
	}
	if steps[1].Axis != mass.AxisParent || steps[1].Test.Name != "name" {
		t.Fatalf("middle step = %s\n%s", steps[1].Label(), q)
	}
}

// TestOptimizeQ2Dedup checks the //watches/watch/ancestor::person rewrite
// into //watches[watch]/ancestor-or-self::person.
func TestOptimizeQ2Dedup(t *testing.T) {
	s, d, _ := loadXMark(t, 0.01)
	_, q := optimize(t, s, d, "//watches/watch/ancestor::person")
	steps := contextSteps(q)
	if len(steps) != 2 {
		t.Fatalf("steps = %d\n%s", len(steps), q)
	}
	if steps[0].Axis != mass.AxisAncestorOrSelf || steps[0].Test.Name != "person" {
		t.Fatalf("top = %s\n%s", steps[0].Label(), q)
	}
	watches := steps[1]
	if watches.Test.Name != "watches" || len(watches.Preds) != 1 {
		t.Fatalf("leaf = %s with %d preds\n%s", watches.Label(), len(watches.Preds), q)
	}
}

// TestOptimizerNeverIncreasesEstimatedWork is the paper's §I contribution
// 5 guarantee at the estimate level.
func TestOptimizerNeverIncreasesEstimatedWork(t *testing.T) {
	s, d, _ := loadXMark(t, 0.01)
	queries := []string{
		"//person/address",
		"//watches/watch/ancestor::person",
		"/descendant::name/parent::*/self::person/address",
		"//itemref/following-sibling::price/parent::*",
		"//province[text()='Vermont']/ancestor::person",
		"//person/name",
		"//open_auction/bidder/increase",
	}
	for _, qstr := range queries {
		def, opt := optimize(t, s, d, qstr)
		wd, wo := cost.Work(def.Root), cost.Work(opt.Root)
		if wo > wd {
			t.Errorf("%s: optimized work %d > default %d", qstr, wo, wd)
		}
	}
}

// TestOptimizedPlansEquivalent is the safety net: for a broad query set,
// the optimized plan's result set must equal the default plan's and the
// DOM oracle's.
func TestOptimizedPlansEquivalent(t *testing.T) {
	s, d, src := loadXMark(t, 0.004)
	domDoc, err := dom.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	oracle := dom.New(domDoc, dom.Options{})

	queries := []string{
		"//person/address",
		"//watches/watch/ancestor::person",
		"/descendant::name/parent::*/self::person/address",
		"//itemref/following-sibling::price/parent::*",
		"//province[text()='Vermont']/ancestor::person",
		"//name[ text() = 'Yung Flach' ]/following-sibling::emailaddress",
		"//person[address/province]",
		"//person[name='Yung Flach']",
		"//item/name",
		"//closed_auction/itemref",
		"//bidder/personref",
		"//person[watches]/name",
		"//address[city='Monroe']/parent::person",
		"//watch/parent::watches/parent::person",
		"//category/name",
		"//person/watches/watch",
		"//edge/parent::catgraph",
		"//province/ancestor::people",
	}
	for _, qstr := range queries {
		def := buildPlan(t, qstr)
		o := &Optimizer{Store: s, Doc: d}
		optp, err := o.Optimize(def)
		if err != nil {
			t.Fatalf("optimize %q: %v", qstr, err)
		}
		want := runDOM(t, oracle, qstr)
		gotDef := runPlan(t, s, d, def)
		gotOpt := runPlan(t, s, d, optp)
		if !equal(gotDef, want) {
			t.Errorf("%s: DEFAULT diverges from oracle (%d vs %d keys)", qstr, len(gotDef), len(want))
		}
		if !equal(gotOpt, want) {
			t.Errorf("%s: OPTIMIZED diverges from oracle (%d vs %d keys)\n%s", qstr, len(gotOpt), len(want), optp)
		}
	}
}

func runPlan(t testing.TB, s *mass.Store, d mass.DocID, p *plan.Plan) []string {
	t.Helper()
	it, err := exec.Run(p, exec.Context{Store: s, Doc: d})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := collect(it)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = string(k)
	}
	sort.Strings(out)
	return out
}

func runDOM(t testing.TB, e *dom.Engine, expr string) []string {
	t.Helper()
	ns, err := e.Eval(expr)
	if err != nil {
		t.Fatal(err)
	}
	return dom.Keys(ns)
}

func equal(a, b []string) bool {
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

func TestRulesRespectDistinct(t *testing.T) {
	s, d, _ := loadXMark(t, 0.005)
	p := buildPlan(t, "//watches/watch/ancestor::person")
	p.Root.Distinct = false
	o := &Optimizer{Store: s, Doc: d}
	q, err := o.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	// Without duplicate elimination the dedup rewrite must not fire: the
	// ancestor axis must survive.
	found := false
	for _, st := range contextSteps(q) {
		if st.Axis == mass.AxisAncestor {
			found = true
		}
	}
	if !found {
		t.Fatalf("multiplicity-changing rewrite applied to a non-distinct plan:\n%s", q)
	}
}

func TestOptimizeIsIdempotentOnOptimalPlans(t *testing.T) {
	s, d, _ := loadXMark(t, 0.005)
	_, q1 := optimize(t, s, d, "//person/address")
	o := &Optimizer{Store: s, Doc: d}
	q2, err := o.Optimize(q1)
	if err != nil {
		t.Fatal(err)
	}
	if q1.String() != q2.String() {
		t.Fatalf("re-optimization changed an optimal plan:\n%s\nvs\n%s", q1, q2)
	}
}

func TestTrace(t *testing.T) {
	s, d, _ := loadXMark(t, 0.005)
	p := buildPlan(t, "//person/address")
	var lines []string
	o := &Optimizer{Store: s, Doc: d, Trace: func(f string, a ...any) {
		lines = append(lines, f)
	}}
	if _, err := o.Optimize(p); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no trace output for a plan with applicable rewrites")
	}
}

func TestExplainOutput(t *testing.T) {
	s, d, _ := loadXMark(t, 0.005)
	_, q := optimize(t, s, d, "//person/address")
	out := Explain(q)
	if !strings.Contains(out, "ordered list") || !strings.Contains(out, "δ=") {
		t.Fatalf("Explain output incomplete:\n%s", out)
	}
}

// TestOptimizeAttrValueIndex covers the attribute-value extension:
// //person[@id='...'] should be driven from the value index.
func TestOptimizeAttrValueIndex(t *testing.T) {
	s, d, _ := loadXMark(t, 0.01)
	_, q := optimize(t, s, d, "//person[@id='person144']")
	var valueStep *plan.Step
	for _, op := range q.Operators() {
		if st, ok := op.(*plan.Step); ok && st.Axis == mass.AxisAttrValue {
			valueStep = st
		}
	}
	if valueStep == nil {
		t.Fatalf("no attr-value step:\n%s", q)
	}
	if valueStep.Test.Name != "person144" || valueStep.Test.Attr != "id" {
		t.Fatalf("attr-value step = %+v", valueStep.Test)
	}
	// And it must return exactly the right person.
	got := runPlan(t, s, d, q)
	if len(got) != 1 {
		t.Fatalf("results = %d, want 1", len(got))
	}
}

// TestAttrValueEquivalence cross-checks the rewrite against both the
// default plan and the DOM oracle.
func TestAttrValueEquivalence(t *testing.T) {
	s, d, src := loadXMark(t, 0.004)
	domDoc, err := dom.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	oracle := dom.New(domDoc, dom.Options{})
	queries := []string{
		"//person[@id='person7']",
		"//watch[@open_auction='open_auction3']",
		"//item[@id='item12']/name",
		"//person[@id='nosuch']",
	}
	for _, qstr := range queries {
		def := buildPlan(t, qstr)
		o := &Optimizer{Store: s, Doc: d}
		optp, err := o.Optimize(def)
		if err != nil {
			t.Fatal(err)
		}
		want := runDOM(t, oracle, qstr)
		if got := runPlan(t, s, d, optp); !equal(got, want) {
			t.Errorf("%s: optimized %d keys, oracle %d keys", qstr, len(got), len(want))
		}
	}
}

// TestOptimizeNumericRange covers the numeric-range extension:
// //zipcode[text() >= 10 and text() < 50] should be driven from the
// numeric value index.
func TestOptimizeNumericRange(t *testing.T) {
	s, d, _ := loadXMark(t, 0.01)
	_, q := optimize(t, s, d, "//zipcode[text() >= 10 and text() < 50]/parent::address")
	var rangeStep *plan.Step
	for _, op := range q.Operators() {
		if st, ok := op.(*plan.Step); ok && st.Axis == mass.AxisNumRange {
			rangeStep = st
		}
	}
	if rangeStep == nil {
		t.Fatalf("no num-range step:\n%s", q)
	}
	if rangeStep.NumLo != 10 || !rangeStep.NumLoIncl || rangeStep.NumHi != 50 || rangeStep.NumHiIncl {
		t.Fatalf("range = %+v", rangeStep)
	}
}

// TestNumericRangeEquivalence cross-checks range rewrites against both
// the default plan and the DOM oracle.
func TestNumericRangeEquivalence(t *testing.T) {
	s, d, src := loadXMark(t, 0.004)
	domDoc, err := dom.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	oracle := dom.New(domDoc, dom.Options{})
	queries := []string{
		"//zipcode[text() > 50]",
		"//zipcode[text() >= 10 and text() < 50]",
		"//price[text() <= 100]/parent::closed_auction",
		"//quantity[text() = 5]",
		"//zipcode[text() > 990]",
	}
	for _, qstr := range queries {
		def := buildPlan(t, qstr)
		o := &Optimizer{Store: s, Doc: d}
		optp, err := o.Optimize(def)
		if err != nil {
			t.Fatal(err)
		}
		want := runDOM(t, oracle, qstr)
		gotDef := runPlan(t, s, d, def)
		gotOpt := runPlan(t, s, d, optp)
		if !equal(gotDef, want) {
			t.Errorf("%s: default diverges from oracle (%d vs %d)", qstr, len(gotDef), len(want))
		}
		if !equal(gotOpt, want) {
			t.Errorf("%s: optimized diverges (%d vs %d)\n%s", qstr, len(gotOpt), len(want), optp)
		}
	}
}

// collect drains the iterator into a key slice.
func collect(it *exec.Iterator) ([]flex.Key, error) {
	var out []flex.Key
	for it.Next() {
		out = append(out, it.Key())
	}
	return out, it.Err()
}
