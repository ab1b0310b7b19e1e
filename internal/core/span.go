package core

// Span-tree assembly: joining the executor's flat per-step span records
// back onto the plan tree they ran, producing the obs.Span tree that the
// flight recorder stores and the exporters render. The join is by
// operator identity (*plan.Step pointers), the same way Analysis joins
// estimated and actual cardinalities.

import (
	"vamana/internal/exec"
	"vamana/internal/obs"
	"vamana/internal/plan"
)

// spanKind classifies a plan operator for trace display.
func spanKind(op plan.Op) string {
	switch op.(type) {
	case *plan.Root:
		return "root"
	case *plan.Step:
		return "axis"
	case *plan.Literal:
		return "literal"
	case *plan.Join:
		return "join"
	default:
		return "pred"
	}
}

// buildSpanTree mirrors the executed plan as an obs.Span tree. Step
// operators of the main pipeline carry their recorded timestamps, tuple
// counts, and storage deltas; the root span covers the whole run
// [0,totalNS] with the delivered result count as its output; operators
// with no recorded span (predicate subtrees run as transient subplans,
// literals, never-pulled steps) appear with estimates only, pinned to
// their parent's open timestamp so nesting stays valid.
func buildSpanTree(p *plan.Plan, spans []exec.StepSpan, results uint64, totalNS int64) *obs.Span {
	byOp := make(map[*plan.Step]exec.StepSpan, len(spans))
	for _, s := range spans {
		byOp[s.Op] = s
	}
	var walk func(op plan.Op, parentStart int64) *obs.Span
	walk = func(op plan.Op, parentStart int64) *obs.Span {
		sp := &obs.Span{
			Name:    op.Label(),
			Kind:    spanKind(op),
			StartNS: parentStart,
			EndNS:   parentStart,
		}
		if c := *plan.CostOf(op); c.Done {
			sp.EstIn, sp.EstOut, sp.Estimated = c.In, c.Out, true
		}
		recorded := false
		switch t := op.(type) {
		case *plan.Root:
			sp.StartNS, sp.EndNS = 0, totalNS
			sp.Out = results
			recorded = true
			if t.Context != nil {
				sp.Children = append(sp.Children, walk(t.Context, 0))
			}
		case *plan.Step:
			if rec, ok := byOp[t]; ok {
				sp.StartNS, sp.EndNS = rec.StartNS, rec.EndNS
				sp.In, sp.Scanned, sp.Out = rec.In, rec.Scanned, rec.Out
				sp.PagesRead, sp.RecordsDecoded = rec.PagesRead, rec.RecordsDecoded
				recorded = true
			}
			if t.Context != nil {
				sp.Children = append(sp.Children, walk(t.Context, sp.StartNS))
			}
			for _, pr := range t.Preds {
				sp.Children = append(sp.Children, walk(pr, sp.StartNS))
			}
		default:
			for _, c := range op.Children() {
				sp.Children = append(sp.Children, walk(c, sp.StartNS))
			}
		}
		if !recorded {
			// Operators without their own clock (predicate combinators,
			// literals) widen to enclose their children: steps inside a
			// predicate subplan do record spans, and nesting must hold.
			for _, c := range sp.Children {
				if c.StartNS < sp.StartNS {
					sp.StartNS = c.StartNS
				}
				if c.EndNS > sp.EndNS {
					sp.EndNS = c.EndNS
				}
			}
		}
		return sp
	}
	return walk(p.Root, 0)
}
