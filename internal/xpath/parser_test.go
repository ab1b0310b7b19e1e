package xpath

import (
	"strings"
	"testing"

	"vamana/internal/mass"
)

func mustParse(t *testing.T, expr string) Expr {
	t.Helper()
	e, err := Parse(expr)
	if err != nil {
		t.Fatalf("Parse(%q): %v", expr, err)
	}
	return e
}

func pathOf(t *testing.T, expr string) *LocationPath {
	t.Helper()
	e := mustParse(t, expr)
	lp, ok := e.(*LocationPath)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *LocationPath", expr, e)
	}
	return lp
}

func TestPaperQueries(t *testing.T) {
	// The five experiment queries (§VIII) plus the running examples.
	queries := []string{
		"//person/address",
		"//watches/watch/ancestor::person",
		"/descendant::name/parent::*/self::person/address",
		"//itemref/following-sibling::price/parent::*",
		"//province[text()='Vermont']/ancestor::person",
		"descendant::name/parent::*/self::person/address",
		"//name[ text() = 'Yung Flach' ]/following-sibling::emailaddress",
	}
	for _, q := range queries {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}

func TestAbbreviatedExpansion(t *testing.T) {
	lp := pathOf(t, "//person/address")
	if !lp.Absolute {
		t.Fatal("// path must be absolute")
	}
	if len(lp.Steps) != 3 {
		t.Fatalf("steps = %d, want 3 (descendant-or-self::node, child::person, child::address)", len(lp.Steps))
	}
	if lp.Steps[0].Axis != mass.AxisDescendantOrSelf || lp.Steps[0].Test.Type != mass.TestNode {
		t.Fatalf("step0 = %s", lp.Steps[0])
	}
	if lp.Steps[1].Axis != mass.AxisChild || lp.Steps[1].Test.Name != "person" {
		t.Fatalf("step1 = %s", lp.Steps[1])
	}
}

func TestAllAxesParse(t *testing.T) {
	axes := []string{
		"child", "descendant", "descendant-or-self", "parent", "ancestor",
		"ancestor-or-self", "following", "following-sibling", "preceding",
		"preceding-sibling", "self", "attribute", "namespace",
	}
	for _, a := range axes {
		lp := pathOf(t, a+"::x")
		want, _ := mass.ParseAxis(a)
		if lp.Steps[0].Axis != want {
			t.Errorf("axis %q parsed as %v", a, lp.Steps[0].Axis)
		}
	}
}

func TestAbbreviations(t *testing.T) {
	cases := []struct {
		expr string
		axis mass.Axis
		test mass.TestType
	}{
		{".", mass.AxisSelf, mass.TestNode},
		{"..", mass.AxisParent, mass.TestNode},
		{"@id", mass.AxisAttribute, mass.TestName},
		{"@*", mass.AxisAttribute, mass.TestWildcard},
		{"*", mass.AxisChild, mass.TestWildcard},
		{"text()", mass.AxisChild, mass.TestText},
		{"node()", mass.AxisChild, mass.TestNode},
		{"comment()", mass.AxisChild, mass.TestComment},
	}
	for _, c := range cases {
		lp := pathOf(t, c.expr)
		if len(lp.Steps) != 1 {
			t.Fatalf("%q: steps = %d", c.expr, len(lp.Steps))
		}
		s := lp.Steps[0]
		if s.Axis != c.axis || s.Test.Type != c.test {
			t.Errorf("%q parsed as %s::%s", c.expr, s.Axis, s.Test)
		}
	}
}

func TestRootOnly(t *testing.T) {
	lp := pathOf(t, "/")
	if !lp.Absolute || len(lp.Steps) != 0 {
		t.Fatalf("bare / = %+v", lp)
	}
}

func TestPredicateStructure(t *testing.T) {
	lp := pathOf(t, "//province[text()='Vermont']/ancestor::person")
	prov := lp.Steps[1]
	if len(prov.Predicates) != 1 {
		t.Fatalf("predicates = %d", len(prov.Predicates))
	}
	b, ok := prov.Predicates[0].(*Binary)
	if !ok || b.Op != OpEq {
		t.Fatalf("predicate = %s", prov.Predicates[0])
	}
	if _, ok := b.Left.(*LocationPath); !ok {
		t.Fatalf("predicate left = %T", b.Left)
	}
	lit, ok := b.Right.(*Literal)
	if !ok || lit.Value != "Vermont" {
		t.Fatalf("predicate right = %v", b.Right)
	}
}

func TestPositionPredicates(t *testing.T) {
	lp := pathOf(t, "//person[3]")
	pred := lp.Steps[1].Predicates[0]
	n, ok := pred.(*Number)
	if !ok || n.Value != 3 {
		t.Fatalf("positional predicate = %v", pred)
	}
	lp = pathOf(t, "//person[position()=last()]")
	b, ok := lp.Steps[1].Predicates[0].(*Binary)
	if !ok || b.Op != OpEq {
		t.Fatalf("predicate = %v", lp.Steps[1].Predicates[0])
	}
	if f, ok := b.Left.(*FuncCall); !ok || f.Name != "position" {
		t.Fatalf("left = %v", b.Left)
	}
}

func TestRangePredicates(t *testing.T) {
	lp := pathOf(t, "//person[zipcode >= 10 and zipcode < 99]")
	pred, ok := lp.Steps[1].Predicates[0].(*Binary)
	if !ok || pred.Op != OpAnd {
		t.Fatalf("predicate = %v", lp.Steps[1].Predicates[0])
	}
	l, r := pred.Left.(*Binary), pred.Right.(*Binary)
	if l.Op != OpGte || r.Op != OpLt {
		t.Fatalf("ops = %v %v", l.Op, r.Op)
	}
}

func TestBooleanPrecedence(t *testing.T) {
	e := mustParse(t, "a or b and c")
	b := e.(*Binary)
	if b.Op != OpOr {
		t.Fatalf("top op = %v, want or", b.Op)
	}
	if rb := b.Right.(*Binary); rb.Op != OpAnd {
		t.Fatalf("right = %v, want and", rb.Op)
	}
}

func TestArithmetic(t *testing.T) {
	e := mustParse(t, "1 + 2 * 3")
	b := e.(*Binary)
	if b.Op != OpAdd {
		t.Fatalf("top = %v", b.Op)
	}
	if rb := b.Right.(*Binary); rb.Op != OpMul {
		t.Fatalf("right = %v", rb.Op)
	}
	e = mustParse(t, "10 div 2 mod 3")
	if e.(*Binary).Op != OpMod {
		t.Fatalf("div/mod chain top = %v", e.(*Binary).Op)
	}
	e = mustParse(t, "-5 + 1")
	if _, ok := e.(*Binary).Left.(*Unary); !ok {
		t.Fatalf("unary minus lost: %v", e)
	}
}

func TestUnion(t *testing.T) {
	e := mustParse(t, "//a | //b | //c")
	b, ok := e.(*Binary)
	if !ok || b.Op != OpUnion {
		t.Fatalf("union = %v", e)
	}
	if lb := b.Left.(*Binary); lb.Op != OpUnion {
		t.Fatalf("left assoc broken: %v", b.Left)
	}
}

func TestFunctionCalls(t *testing.T) {
	e := mustParse(t, "count(//person)")
	f, ok := e.(*FuncCall)
	if !ok || f.Name != "count" || len(f.Args) != 1 {
		t.Fatalf("count parse = %v", e)
	}
	e = mustParse(t, "contains(name, 'Flach')")
	f = e.(*FuncCall)
	if len(f.Args) != 2 {
		t.Fatalf("contains args = %d", len(f.Args))
	}
	e = mustParse(t, "true()")
	if f = e.(*FuncCall); len(f.Args) != 0 {
		t.Fatalf("true() args = %d", len(f.Args))
	}
}

func TestFilterWithTrailingPath(t *testing.T) {
	e := mustParse(t, "(//person)[1]/address")
	f, ok := e.(*Filter)
	if !ok {
		t.Fatalf("filter = %T", e)
	}
	if len(f.Predicates) != 1 || f.Path == nil {
		t.Fatalf("filter = %+v", f)
	}
	if f.Path.Steps[0].Test.Name != "address" {
		t.Fatalf("trailing path = %s", f.Path)
	}
}

func TestVariableReference(t *testing.T) {
	e := mustParse(t, "$ctx/child::name")
	f, ok := e.(*Filter)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if _, ok := f.Primary.(*VarRef); !ok {
		t.Fatalf("primary = %T", f.Primary)
	}
}

func TestDoubleSlashInside(t *testing.T) {
	lp := pathOf(t, "/site//person")
	if len(lp.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(lp.Steps))
	}
	if lp.Steps[1].Axis != mass.AxisDescendantOrSelf {
		t.Fatalf("middle step = %s", lp.Steps[1])
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"", "//", "person[", "person]", "foo::bar", "//person[", "@",
		"descendant::", "a='unterminated", "a ! b", "value::x",
		"person[]", "f(", "(a", "..b", "1.2.3:",
	}
	for _, expr := range bad {
		if _, err := Parse(expr); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", expr)
		} else if !strings.Contains(err.Error(), "xpath:") {
			t.Errorf("Parse(%q) error lacks context: %v", expr, err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	// String() output must itself re-parse to an equal AST rendering.
	exprs := []string{
		"//person/address",
		"//province[text()='Vermont']/ancestor::person",
		"//person[position()=2]",
		"count(//person) > 5",
		"//a | //b",
	}
	for _, expr := range exprs {
		e := mustParse(t, expr)
		r1 := e.String()
		e2, err := Parse(r1)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", r1, expr, err)
		}
		if r2 := e2.String(); r1 != r2 {
			t.Errorf("round-trip unstable: %q -> %q", r1, r2)
		}
	}
}
