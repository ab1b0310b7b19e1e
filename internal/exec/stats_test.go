package exec

import (
	"strings"
	"testing"

	"vamana/internal/cost"
	"vamana/internal/mass"
	"vamana/internal/opt"
	"vamana/internal/plan"
	"vamana/internal/xmark"
	"vamana/internal/xpath"
)

// TestEstimatesBoundActuals is the empirical soundness check of the cost
// model: for every step operator on every workload query, over both the
// default and optimized plans, the actual IN and OUT observed during
// execution never exceed the estimator's bounds.
func TestEstimatesBoundActuals(t *testing.T) {
	s, err := mass.Open(mass.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := xmark.GenerateString(xmark.Config{Factor: 0.006, Seed: 91})
	d, err := s.LoadDocument("auction", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"//person/address",
		"//watches/watch/ancestor::person",
		"/descendant::name/parent::*/self::person/address",
		"//itemref/following-sibling::price/parent::*",
		"//province[text()='Vermont']/ancestor::person",
		"//person[@id='person3']",
		"//zipcode[text() >= 10 and text() < 50]",
		"//person[address/city='Monroe']",
		"//open_auction/bidder",
	}
	for _, qstr := range queries {
		for _, optimized := range []bool{false, true} {
			ast, err := xpath.Parse(qstr)
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.Build(ast)
			if err != nil {
				t.Fatal(err)
			}
			if optimized {
				o := &opt.Optimizer{Store: s, Doc: d}
				if p, err = o.Optimize(p); err != nil {
					t.Fatal(err)
				}
			} else {
				opt.Cleanup(p)
			}
			est := &cost.Estimator{Store: cost.NewMemoProbes(s), Doc: d}
			if err := est.Estimate(p); err != nil {
				t.Fatal(err)
			}
			it, err := Run(p, Context{Store: s, Doc: d})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := collect(it); err != nil {
				t.Fatal(err)
			}
			for _, st := range it.Stats() {
				c := st.Op.Cost
				if !c.Done {
					t.Errorf("%s (opt=%v): %s has no estimate", qstr, optimized, st.Op.Label())
					continue
				}
				if st.In > c.In {
					t.Errorf("%s (opt=%v): %s actual IN %d exceeds estimate %d",
						qstr, optimized, st.Op.Label(), st.In, c.In)
				}
				if st.Out > c.Out {
					t.Errorf("%s (opt=%v): %s actual OUT %d exceeds estimate %d",
						qstr, optimized, st.Op.Label(), st.Out, c.Out)
				}
			}
		}
	}
}

func TestStatsReflectExecution(t *testing.T) {
	s, err := mass.Open(mass.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.LoadDocument("doc", strings.NewReader("<r><a><b/><b/></a><a><b/></a></r>"))
	if err != nil {
		t.Fatal(err)
	}
	ast, _ := xpath.Parse("//a/b")
	p, _ := plan.Build(ast)
	it, err := Run(p, Context{Store: s, Doc: d})
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := collect(it)
	if len(keys) != 3 {
		t.Fatalf("results = %d", len(keys))
	}
	stats := it.Stats()
	if len(stats) != 2 {
		t.Fatalf("step stats = %d", len(stats))
	}
	// Top step (child::b): 2 contexts in, 3 out. Leaf (descendant::a):
	// IN reports the tuples received from the index (Case 1): 2.
	var bStat, aStat *OpStats
	for i := range stats {
		switch stats[i].Op.Test.Name {
		case "b":
			bStat = &stats[i]
		case "a":
			aStat = &stats[i]
		}
	}
	if aStat == nil || bStat == nil {
		t.Fatal("missing step stats")
	}
	if aStat.In != 2 || aStat.Out != 2 {
		t.Errorf("a stats = %+v", *aStat)
	}
	if bStat.In != 2 || bStat.Out != 3 {
		t.Errorf("b stats = %+v", *bStat)
	}
}

// TestOrderedExecution: with Ordered set, results arrive in document
// order even for reverse-axis queries, and match the unordered set.
func TestOrderedExecution(t *testing.T) {
	s, err := mass.Open(mass.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d, err := s.LoadDocument("doc", strings.NewReader(
		"<r><a><b/></a><a><b/></a><a><b/></a></r>"))
	if err != nil {
		t.Fatal(err)
	}
	ast, _ := xpath.Parse("//b/ancestor::*")
	p, _ := plan.Build(ast)
	it, err := Run(p, Context{Store: s, Doc: d, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 { // r + 3 a's
		t.Fatalf("results = %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("not in document order: %v", keys)
		}
	}
	// Same set as the unordered run.
	it2, _ := Run(p, Context{Store: s, Doc: d})
	keys2, _ := collect(it2)
	if len(keys2) != len(keys) {
		t.Fatalf("ordered %d vs unordered %d", len(keys), len(keys2))
	}
}
