package exec

import (
	"sort"
	"testing"

	"vamana/internal/mass"
	"vamana/internal/opt"
	"vamana/internal/plan"
	"vamana/internal/xpath"
)

// runPlan is runVamana with the cost optimizer's rewrites applied when
// optimized is set.
func runPlan(t *testing.T, s *mass.Store, d mass.DocID, expr string, optimized bool) []string {
	t.Helper()
	ast, err := xpath.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	p, err := plan.Build(ast)
	if err != nil {
		t.Fatalf("build %q: %v", expr, err)
	}
	if optimized {
		if p, err = (&opt.Optimizer{Store: s, Doc: d}).Optimize(p); err != nil {
			t.Fatalf("optimize %q: %v", expr, err)
		}
	} else {
		opt.Cleanup(p)
	}
	it, err := Run(p, Context{Store: s, Doc: d})
	if err != nil {
		t.Fatalf("run %q: %v", expr, err)
	}
	keys, err := collect(it)
	if err != nil {
		t.Fatalf("collect %q: %v", expr, err)
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = string(k)
	}
	sort.Strings(out)
	return out
}

// TestComparisonAndRoundSemantics pins XPath 1.0 §3.4 comparisons (NaN is
// unequal to itself; a boolean compares with a node-set's boolean value,
// which an empty set has too) and §4.4 round() (halves towards positive
// infinity, −0 for [−0.5, 0), NaN and infinities unchanged), on the
// unoptimized and the optimized plan and on the DOM oracle.
func TestComparisonAndRoundSemantics(t *testing.T) {
	s, d, oracle := setup(t, `<r><a id="1">x<b>y</b>z</a><a id="2"><b>w</b><c/></a></r>`)
	const first, both, none = "//a[@id='1']", "//a", "//nosuch"
	cases := []struct{ expr, want string }{
		{"//a[number('x') != number('x')]", both},
		{"//a[number('x') = number('x')]", none},
		{"//a[c = false()]", first},
		{"//a[c != true()]", first},
		{"//a[false() = c]", first},
		{"//a[c = true()]", "//a[@id='2']"},
		{"//a[c < true()]", first},
		{"//a[round(-0.5) = 0]", both},
		{"//a[1 div round(-0.5) < 0]", both},
		{"//a[1 div round(-0.2) < 0]", both},
		{"//a[round(-2.5) = -2]", both},
		{"//a[round(2.5) = 3]", both},
		{"//a[round(-1.5) = -1]", both},
		{"//a[round(0.49999999999999994) = 0]", both},
		{"//a[round(number('x')) != round(number('x'))]", both},
		{"//a[round(1 div 0) = 1 div 0]", both},
		{"//a[round(-1 div 0) = -1 div 0]", both},
	}
	for _, c := range cases {
		want := runPlan(t, s, d, c.want, false)
		if dom := runDOM(t, oracle, c.expr); !equalStrings(dom, want) {
			t.Errorf("%s: dom oracle %v, want %v", c.expr, dom, want)
		}
		for _, optimized := range []bool{false, true} {
			if got := runPlan(t, s, d, c.expr, optimized); !equalStrings(got, want) {
				t.Errorf("%s (optimized=%v): %v, want %v", c.expr, optimized, got, want)
			}
		}
	}
}

// TestAbsolutePathsInPredicates checks that a location path starting at
// the root keeps its anchor inside a predicate — as an existence test,
// as a comparison operand, and under and/or — on the unoptimized and
// the optimized plan and on the DOM oracle. Each predicate holds for
// both a elements, because it does not depend on the context node.
func TestAbsolutePathsInPredicates(t *testing.T) {
	s, d, oracle := setup(t, `<r><a id="1">x<b>y</b>z</a><a id="2"><b>w</b><c/></a></r>`)
	want := runPlan(t, s, d, "//a", false)
	if len(want) != 2 {
		t.Fatalf("//a = %v, want two elements", want)
	}
	for _, expr := range []string{
		"//a[//c]",
		"//a[@id = //a/@id]",
		"//a[@id='2' or //c]",
		"//a[//a/@id='2']",
		"//a[/r/a/b and b]",
		"//a[/r/a/c = '']",
	} {
		if dom := runDOM(t, oracle, expr); !equalStrings(dom, want) {
			t.Errorf("%s: dom oracle %v, want %v", expr, dom, want)
		}
		for _, optimized := range []bool{false, true} {
			if got := runPlan(t, s, d, expr, optimized); !equalStrings(got, want) {
				t.Errorf("%s (optimized=%v): %v, want %v", expr, optimized, got, want)
			}
		}
	}
}
