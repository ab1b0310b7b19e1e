package bench

import (
	"errors"
	"strings"
	"testing"
)

func smallFixture(t *testing.T, faithful bool) *Fixture {
	t.Helper()
	f, err := NewFixtureExecBatch(200<<10, 61, faithful, 0) // ~200 KB
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestAllEnginesAgreeOnCounts: every engine that can run a query must
// report the same result cardinality — the cross-engine consistency check
// behind the paper's comparison charts.
func TestAllEnginesAgreeOnCounts(t *testing.T) {
	f := smallFixture(t, false)
	for _, q := range Queries {
		counts := map[Engine]int{}
		for _, e := range AllEngines {
			r := f.Run(e, q)
			if r.Err != nil {
				// Q4 is legitimately unsupported on Galax and eXist.
				if q.ID == "Q4" && (e == EngineGalax || e == EngineEXist) {
					continue
				}
				t.Errorf("%s on %s: %v", q.ID, e, r.Err)
				continue
			}
			counts[e] = r.Count
		}
		ref, ok := counts[EngineVQPOpt]
		if !ok {
			t.Fatalf("%s: VQP-OPT did not run", q.ID)
		}
		for e, c := range counts {
			if c != ref {
				t.Errorf("%s: %s returned %d results, VQP-OPT %d", q.ID, e, c, ref)
			}
		}
		if ref == 0 && q.ID != "Q5" {
			t.Errorf("%s: zero results", q.ID)
		}
	}
}

func TestQ4AxisGaps(t *testing.T) {
	f := smallFixture(t, false)
	q4, _ := QueryByID("Q4")
	if r := f.Run(EngineGalax, q4); r.Err == nil {
		t.Error("Galax strategy should fail Q4 (following-sibling)")
	}
	if r := f.Run(EngineEXist, q4); r.Err == nil {
		t.Error("eXist strategy should fail Q4 (following-sibling)")
	}
	if r := f.Run(EngineVQPOpt, q4); r.Err != nil {
		t.Errorf("VAMANA must support Q4: %v", r.Err)
	}
}

func TestFaithfulCapacityLimits(t *testing.T) {
	// A fixture bigger than Jaxen's published 10 MB limit.
	f, err := NewFixtureExecBatch(11<<20, 62, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	q1, _ := QueryByID("Q1")
	if r := f.Run(EngineJaxen, q1); !errors.Is(r.Err, ErrCapacity) {
		t.Errorf("Jaxen at 11MB: err = %v, want capacity", r.Err)
	}
	// Galax (30 MB limit) and VAMANA still run.
	if r := f.Run(EngineVQPOpt, q1); r.Err != nil {
		t.Errorf("VQP-OPT at 11MB: %v", r.Err)
	}
}

func TestOptimizedNeverSlowerByCount(t *testing.T) {
	// VQP and VQP-OPT must agree on result counts for every query (the
	// timing claim is benchmarked, not unit-tested).
	f := smallFixture(t, false)
	for _, q := range Queries {
		d := f.Run(EngineVQP, q)
		o := f.Run(EngineVQPOpt, q)
		if d.Err != nil || o.Err != nil {
			t.Fatalf("%s: %v / %v", q.ID, d.Err, o.Err)
		}
		if d.Count != o.Count {
			t.Errorf("%s: VQP=%d VQP-OPT=%d", q.ID, d.Count, o.Count)
		}
		if o.OptTime == 0 {
			t.Errorf("%s: optimization time not recorded", q.ID)
		}
	}
}

func TestFormatFigure(t *testing.T) {
	f := smallFixture(t, false)
	q1, _ := QueryByID("Q1")
	results := sweep([]*Fixture{f}, q1, []Engine{EngineVQP, EngineVQPOpt})
	out := FormatFigure(q1, results, []Engine{EngineVQP, EngineVQPOpt})
	for _, want := range []string{"Fig12", "VQP", "VQP-OPT", "200KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestQueryByID(t *testing.T) {
	if _, ok := QueryByID("Q3"); !ok {
		t.Fatal("Q3 missing")
	}
	if _, ok := QueryByID("Q9"); ok {
		t.Fatal("Q9 should not exist")
	}
}

func TestMeasureEngineMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement is slow under -short")
	}
	f := smallFixture(t, false)
	src := f.Source()
	var results []MemoryResult
	for _, e := range []Engine{EngineJaxen, EngineVQP} {
		r := MeasureEngineMemory(src, e)
		if r.Err != nil {
			t.Fatalf("%s: %v", e, r.Err)
		}
		if r.HeapBytes == 0 {
			t.Errorf("%s: zero heap growth for a %d byte document", e, len(src))
		}
		results = append(results, r)
	}
	out := FormatMemoryTable(results)
	if !strings.Contains(out, "Jaxen") || !strings.Contains(out, "VQP") {
		t.Fatalf("table incomplete:\n%s", out)
	}
}

// sweep runs every engine on one query across fixtures and returns the
// results grouped per engine — one paper figure.
func sweep(fixtures []*Fixture, q Query, engines []Engine) []Result {
	var out []Result
	for _, f := range fixtures {
		for _, e := range engines {
			out = append(out, f.Run(e, q))
		}
	}
	return out
}
