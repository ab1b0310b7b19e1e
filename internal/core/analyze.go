package core

import (
	"fmt"
	"strings"

	"vamana/internal/exec"
	"vamana/internal/mass"
	"vamana/internal/plan"
)

// Analysis is the structured result of Query.Analyze: the cost-annotated
// plan clone that executed, the number of result tuples it produced, and
// the per-step actual execution counters. Stats entries reference Step
// operators inside Plan, so estimated and actual cardinalities can be
// joined by operator identity.
type Analysis struct {
	Plan    *plan.Plan
	Results uint64
	Stats   []exec.OpStats
}

// Analyze estimates the plan for doc over sn's pinned version (nil: the
// live store), executes it there to completion, and returns the
// estimates and the actual per-operator counters side by side — the
// machinery behind ExplainAnalyze, exposed structurally so tests and
// tools can assert on the numbers instead of parsing text.
func (q *Query) Analyze(sn *Snapshot, doc mass.DocID) (*Analysis, error) {
	p, err := q.Estimate(sn, doc)
	if err != nil {
		return nil, err
	}
	it, err := exec.Run(p, exec.Context{Store: q.engine.viewOf(sn).src, Doc: doc})
	if err != nil {
		return nil, err
	}
	for it.Next() {
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return &Analysis{Plan: p, Results: it.Results(), Stats: it.Stats()}, nil
}

// String renders the plan tree with each operator's estimated bounds next
// to its actual execution counters:
//
//	R1                                        | act OUT=15
//	  φ2 child::address    est IN=25 OUT=25   | act IN=15 scanned=15 OUT=15
//
// Estimates are upper bounds (paper §VI-B), so act ≤ est per operator is
// the invariant this display lets a reader check at a glance. Steps
// executed as transient predicate subplans report no actuals and show
// estimates only.
func (a *Analysis) String() string {
	byOp := make(map[*plan.Step]exec.OpStats, len(a.Stats))
	for _, st := range a.Stats {
		byOp[st.Op] = st
	}
	var b strings.Builder
	fmt.Fprintf(&b, "results: %d\n", a.Results)
	var walk func(op plan.Op, indent, role string)
	walk = func(op plan.Op, indent, role string) {
		head := indent
		if role != "" {
			head += role + " "
		}
		head += op.Label()
		fmt.Fprintf(&b, "%-44s", head)
		if c := *plan.CostOf(op); c.Done {
			fmt.Fprintf(&b, "  est IN=%d OUT=%d", c.In, c.Out)
		}
		if st, ok := op.(*plan.Step); ok {
			if s, have := byOp[st]; have {
				fmt.Fprintf(&b, "  | act IN=%d scanned=%d OUT=%d", s.In, s.Scanned, s.Out)
			}
		} else if _, isRoot := op.(*plan.Root); isRoot {
			fmt.Fprintf(&b, "  | act OUT=%d", a.Results)
		}
		b.WriteByte('\n')
		switch t := op.(type) {
		case *plan.Step:
			if t.Context != nil {
				walk(t.Context, indent+"  ", "ctx:")
			}
			for _, pr := range t.Preds {
				walk(pr, indent+"  ", "pred:")
			}
		default:
			for _, c := range op.Children() {
				walk(c, indent+"  ", "")
			}
		}
	}
	walk(a.Plan.Root, "", "")
	return b.String()
}
