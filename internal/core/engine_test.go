package core

import (
	"context"
	"strings"
	"testing"

	"vamana/internal/exec"
	"vamana/internal/flex"
	"vamana/internal/mass"
	"vamana/internal/xmark"
)

func openEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// run executes q on the live store from start ("" = document root).
func run(q *Query, d mass.DocID, start flex.Key) (*exec.Iterator, error) {
	return q.Run(context.Background(), nil, d, RunArgs{Start: start})
}

func TestCompileExecutePipeline(t *testing.T) {
	e := openEngine(t)
	src := xmark.GenerateString(xmark.Config{Factor: 0.002, Seed: 81})
	d, err := e.LoadString("auction", src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile("//person/name")
	if err != nil {
		t.Fatal(err)
	}
	if q.Optimized() {
		t.Fatal("Compile produced an optimized query")
	}
	it, err := run(q, d, "")
	if err != nil {
		t.Fatal(err)
	}
	keys, err := collect(it)
	if err != nil {
		t.Fatal(err)
	}
	want := xmark.CountsFor(0.002).Persons
	if len(keys) != want {
		t.Fatalf("names = %d, want %d", len(keys), want)
	}

	qo, err := e.CompileOptimized(d, "//person/name")
	if err != nil {
		t.Fatal(err)
	}
	if !qo.Optimized() {
		t.Fatal("CompileOptimized not marked optimized")
	}
	it2, _ := run(qo, d, "")
	keys2, err := collect(it2)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys2) != len(keys) {
		t.Fatalf("optimized result = %d, default = %d", len(keys2), len(keys))
	}
}

func TestQueryReusableAcrossExecutions(t *testing.T) {
	e := openEngine(t)
	d, err := e.LoadString("doc", "<r><x/><x/></r>")
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile("//x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		it, err := run(q, d, "")
		if err != nil {
			t.Fatal(err)
		}
		keys, err := collect(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 2 {
			t.Fatalf("run %d: %d results", i, len(keys))
		}
	}
}

func TestExecuteFromContext(t *testing.T) {
	e := openEngine(t)
	d, err := e.LoadString("doc", "<r><a><x/></a><b><x/><x/></b></r>")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := e.Compile("//b")
	it, _ := run(q, d, "")
	keys, _ := collect(it)
	if len(keys) != 1 {
		t.Fatal("setup failed")
	}
	rel, err := e.Compile("x")
	if err != nil {
		t.Fatal(err)
	}
	it2, err := run(rel, d, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	sub, err := collect(it2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 {
		t.Fatalf("x under b = %d, want 2", len(sub))
	}
}

func TestExplainAndTrace(t *testing.T) {
	e := openEngine(t)
	src := xmark.GenerateString(xmark.Config{Factor: 0.003, Seed: 82})
	d, err := e.LoadString("auction", src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.CompileOptimized(d, "//person/address")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Trace()) == 0 {
		t.Error("no optimizer trace for a rewritable query")
	}
	out, err := q.Explain(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"query:", "rewrite:", "δ="} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q", want)
		}
	}
	if q.Plan() == nil || q.Expr() == "" {
		t.Error("plan/expr accessors broken")
	}
}

func TestEstimateOnly(t *testing.T) {
	e := openEngine(t)
	d, err := e.LoadString("doc", "<r><x>1</x></r>")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := e.Compile("//x")
	p, err := q.Estimate(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Root.Cost.Done {
		t.Fatal("Estimate did not annotate the returned plan")
	}
	if q.Plan().Root.Cost.Done {
		t.Fatal("Estimate mutated the query's shared plan")
	}
	_ = flex.Root
}

func TestCompileErrorsPropagate(t *testing.T) {
	e := openEngine(t)
	if _, err := e.Compile("//["); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := e.Compile("3 * 4"); err == nil {
		t.Error("non-node-set expression compiled")
	}
}

// TestCostFoldAllocFree pins the cost observatory's claim that every
// query can afford it: once each class's worst offender has reached its
// fixed point, folding a finished run into the per-class accumulators
// allocates nothing. Repeated folds of one run observe identical
// q-errors, so no new maximum (the fold's only allocation) can appear.
func TestCostFoldAllocFree(t *testing.T) {
	e := openEngine(t)
	d, err := e.LoadString("auction", xmark.GenerateString(xmark.Config{Factor: 0.002, Seed: 81}))
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"//person/address", "//person[profile/age]/name", "//open_auction/bidder/increase"} {
		q, err := e.CompileOptimized(d, expr)
		if err != nil {
			t.Fatal(err)
		}
		it, err := run(q, d, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := collect(it); err != nil {
			t.Fatal(err)
		}
		if op, _ := e.cost.fold(it, expr); op == nil {
			t.Fatalf("%s: fold observed no cost-annotated step", expr)
		}
		if n := testing.AllocsPerRun(100, func() { e.cost.fold(it, expr) }); n != 0 {
			t.Errorf("%s: fold allocates %.1f times per query", expr, n)
		}
		it.Close()
	}
}

// TestCostFoldSkipsFromRuns: a run started From a node other than the
// root feeds the cost observatory nothing — the plan's estimates
// describe the run from the document root — while the same prepared
// query run from the root does.
func TestCostFoldSkipsFromRuns(t *testing.T) {
	e := openEngine(t)
	d, err := e.LoadString("d", "<r><b><c/><c/></b><c/></r>")
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.CompileOptimized(d, "descendant::c")
	if err != nil {
		t.Fatal(err)
	}
	folded := func(start flex.Key) uint64 {
		t.Helper()
		before := e.CostProfile().Observations
		it, err := run(q, d, start)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := collect(it); err != nil {
			t.Fatal(err)
		}
		it.Close()
		return e.CostProfile().Observations - before
	}
	if n := folded(""); n == 0 {
		t.Fatal("a run from the root folded no observation")
	}
	if n := folded("a.b.b"); n != 0 {
		t.Fatalf("a run From a.b.b folded %d observations", n)
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
