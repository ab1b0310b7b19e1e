// Package opt implements VAMANA's cost-driven, rule-based optimizer
// (paper §VI). Optimization iterates three phases — expression clean-up,
// cost gathering, and rewriting — until no further transformation helps:
//
//  1. Cleanup normalizes the plan (self-axis merging, // collapse).
//  2. The cost estimator annotates every operator with COUNT/TC/IN/OUT
//     and selectivity δ from live index statistics.
//  3. Walking the ordered list L(P) from the most selective operator
//     down, the first applicable library rule whose estimated work does
//     not regress is committed, and the cycle repeats.
//
// Because every accepted rewrite is an algebraic equivalence whose cost
// bound is no worse, "the optimizer always generates a query plan having
// the same or faster performance with respect to the default query plan"
// (§VIII).
package opt

import (
	"fmt"

	"vamana/internal/cost"
	"vamana/internal/mass"
	"vamana/internal/plan"
)

// Optimizer rewrites plans for one document using its live statistics.
type Optimizer struct {
	Store mass.Source
	Doc   mass.DocID
	// Probes overrides the statistics source used for costing; nil means
	// a memo over Store private to this optimization. The engine passes a
	// shared cost.MemoProbes here so repeated optimizations between
	// updates reuse probe results.
	Probes cost.Probes
	// MaxIterations bounds the rewrite loop; 0 means the default (16).
	MaxIterations int
	// Rules overrides the transformation library; nil means Library().
	Rules []Rule
	// Trace, when non-nil, receives a line per optimization decision —
	// surfaced by the engine's EXPLAIN facility.
	Trace func(format string, args ...any)
}

const defaultMaxIterations = 16

// Optimize returns an optimized copy of p; the input plan is not
// modified. The result always carries final cost annotations.
func (o *Optimizer) Optimize(p *plan.Plan) (*plan.Plan, error) {
	q := p.Clone()
	rules := o.Rules
	if rules == nil {
		rules = Library()
	}
	maxIter := o.MaxIterations
	if maxIter <= 0 {
		maxIter = defaultMaxIterations
	}
	probes := o.Probes
	if probes == nil {
		probes = cost.NewMemoProbes(o.Store)
	}
	est := &cost.Estimator{Store: probes, Doc: o.Doc}

	Cleanup(q)
	for iter := 0; iter < maxIter; iter++ {
		if err := est.Estimate(q); err != nil {
			return nil, err
		}
		applied, err := o.applyOne(q, rules, est)
		if err != nil {
			return nil, err
		}
		if !applied {
			break
		}
		Cleanup(q)
	}
	if err := est.Estimate(q); err != nil {
		return nil, err
	}
	q.AssignIDs()
	return q, nil
}

// applyOne walks L(P) from the most selective operator and commits the
// first cost-improving transformation, reporting whether one was applied.
func (o *Optimizer) applyOne(q *plan.Plan, rules []Rule, est *cost.Estimator) (bool, error) {
	slots := contextPathSlots(q)
	for _, entry := range cost.OrderedList(q) {
		s, ok := entry.Op.(*plan.Step)
		if !ok {
			continue
		}
		set, onCtxPath := slots[entry.Op]
		if !onCtxPath {
			continue
		}
		for _, r := range rules {
			if r.RequiresDistinct && !q.Root.Distinct {
				continue
			}
			candidate, ok := r.Apply(s)
			if !ok {
				continue
			}
			// Tag the rewritten subtree with the rule's name: the cost
			// observatory keys its q-error classes on Prov, so a
			// committed plan's steps name the rule that produced them.
			// Rejected candidates are discarded, so stamping is free.
			stampProvenance(candidate, r.Name)
			// Dynamic costing of the transformed subtree only — "this is
			// inexpensive compared to costing the entire query plan"
			// (§VI-C).
			if err := est.EstimateSubtree(candidate); err != nil {
				return false, err
			}
			oldWork, newWork := cost.Work(s), cost.Work(candidate)
			if newWork >= oldWork {
				o.tracef("rule %s on %s rejected: work %d -> %d", r.Name, s.Label(), oldWork, newWork)
				continue
			}
			o.tracef("rule %s on %s applied: work %d -> %d", r.Name, s.Label(), oldWork, newWork)
			set(candidate)
			q.AssignIDs()
			return true, nil
		}
	}
	return false, nil
}

// stampProvenance records the rewrite rule on every step of a candidate
// subtree that no earlier rule claimed (steps cloned from the original
// plan carry an empty Prov; steps moved by a previous iteration keep the
// rule that first touched them).
func stampProvenance(op plan.Op, rule string) {
	if s, ok := op.(*plan.Step); ok && s.Prov == "" {
		s.Prov = rule
	}
	for _, c := range op.Children() {
		stampProvenance(c, rule)
	}
}

func (o *Optimizer) tracef(format string, args ...any) {
	if o.Trace != nil {
		o.Trace(format, args...)
	}
}

// contextPathSlots maps each operator on the plan's context path to a
// setter that replaces it (and its subtree) in the plan. Rules are only
// applied on the context path: their rewrites re-anchor subtree leaves,
// which is exactly the paper's push-down of selective operators.
func contextPathSlots(q *plan.Plan) map[plan.Op]func(plan.Op) {
	slots := map[plan.Op]func(plan.Op){}
	root := q.Root
	if root.Context != nil {
		slots[root.Context] = func(n plan.Op) { root.Context = n }
		cur := root.Context
		for {
			st, ok := cur.(*plan.Step)
			if !ok || st.Context == nil {
				break
			}
			child := st.Context
			slots[child] = func(n plan.Op) { st.Context = n }
			cur = child
		}
	}
	return slots
}

// Explain renders a plan with its cost annotations plus the ordered list
// L(P) — the full picture the optimizer reasons over.
func Explain(p *plan.Plan) string {
	out := p.String()
	out += "ordered list L(P), most selective first:\n"
	for _, e := range cost.OrderedList(p) {
		out += fmt.Sprintf("  δ=%.3f  %s\n", e.Sel, e.Op.Label())
	}
	return out
}
