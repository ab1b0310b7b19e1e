// Package cost implements VAMANA's cost estimation model (paper §VI-B).
//
// Statistics are gathered from the MASS indexes directly — COUNT(op) and
// TC(op) are O(log n) counted-B+-tree probes — so estimates are always
// exact and current, with no histogram maintenance under updates. The
// per-operator quantities are:
//
//	COUNT(op) — nodes in the index satisfying the operator's node test
//	TC(op)    — occurrences of a literal's value in the value index
//	IN(op)    — maximum tuples the operator receives from its context child
//	OUT(op)   — maximum tuples the operator can return (Table I)
//	δ(op)     — selectivity ratio IN/OUT, scaled to [0,1] over the plan
//
// OUT is an upper bound by construction, which is the direction the
// optimizer needs: a transformation is accepted only when its bound does
// not regress.
package cost

import (
	"fmt"
	"sort"

	"vamana/internal/flex"
	"vamana/internal/mass"
	"vamana/internal/plan"
)

// Probes is the statistics interface the estimator consumes: the
// counted-index probes of §VI-B. *mass.View implements it directly;
// MemoProbes wraps a store or a view with an epoch-validated cache so
// repeated estimations of the same document between updates reuse
// results. The probes are exact but for truncated values and numeric
// ranges (NumericRangeBound), where they are upper bounds — the
// direction output estimates need.
type Probes interface {
	TestCount(d mass.DocID, test mass.NodeTest, ctx flex.Key) (uint64, error)
	TextCount(d mass.DocID, v string, ctx flex.Key) (uint64, error)
	AttrValueCount(d mass.DocID, v string, ctx flex.Key) (uint64, error)
	CountAttrName(d mass.DocID, name string) (uint64, error)
	CountNodes(d mass.DocID) (uint64, error)
	NumericRangeBound(d mass.DocID, lo float64, loIncl bool, hi float64, hiIncl bool) (uint64, error)
}

// Estimator annotates plans with cost information for one document.
type Estimator struct {
	Store Probes
	Doc   mass.DocID
	// Probes counts index statistics probes issued, exposing how cheap
	// costing is (reported by the optimization-overhead experiment).
	Probes int
}

// Estimate walks the plan bottom-up (leaf operators first, propagating
// upwards, §VI-B) and fills in every operator's Cost block.
func (e *Estimator) Estimate(p *plan.Plan) error {
	root := p.Root
	if root.Context == nil {
		return fmt.Errorf("cost: plan has no context child")
	}
	out, err := e.visitContext(root.Context, 0, false)
	if err != nil {
		return err
	}
	root.Cost = plan.Cost{In: out, Out: out, Done: true}
	e.scaleSelectivity(p)
	return nil
}

// EstimateSubtree annotates a context-path subtree whose leaf is a
// context-path leaf (IN = COUNT). The optimizer uses it to cost a
// candidate transformation without re-costing the whole plan (§VI-C).
func (e *Estimator) EstimateSubtree(op plan.Op) error {
	_, err := e.visitContext(op, 0, false)
	return err
}

// visitContext estimates an operator on a context path. in is the number
// of tuples delivered by the operator's context child; hasIn is false for
// leaf operators, whose IN is defined by their own COUNT (Case 1) or, on
// predicate paths, by the tuples the predicate receives (Case 3) — the
// caller passes hasIn=true with that amount in that case.
func (e *Estimator) visitContext(op plan.Op, in uint64, hasIn bool) (uint64, error) {
	switch t := op.(type) {
	case *plan.Step:
		return e.visitStep(t, in, hasIn)
	case *plan.Join:
		l, err := e.visitContext(t.Left, in, hasIn)
		if err != nil {
			return 0, err
		}
		r, err := e.visitContext(t.Right, in, hasIn)
		if err != nil {
			return 0, err
		}
		t.Cost = plan.Cost{In: l + r, Out: l + r, Sel: 1, Done: true}
		return l + r, nil
	default:
		return 0, fmt.Errorf("cost: %T cannot appear on a context path", op)
	}
}

func (e *Estimator) visitStep(s *plan.Step, in uint64, hasIn bool) (uint64, error) {
	count, err := e.stepCount(s)
	if err != nil {
		return 0, err
	}
	if s.Context != nil {
		// Case 2: IN = OUT(context child).
		if in, err = e.visitContext(s.Context, in, hasIn); err != nil {
			return 0, err
		}
	} else if !hasIn {
		// Case 1: a leaf on the context path receives every index tuple
		// matching its test.
		in = count
	}
	// Table I: the upper bound on produced tuples before predicates.
	candidates := tableOut(s.Axis, count, in)
	out := candidates
	for _, pred := range s.Preds {
		if out, err = e.visitPred(pred, out); err != nil {
			return 0, err
		}
	}
	s.Cost = plan.Cost{Count: count, In: in, Out: out, Sel: rawSelectivity(in, out), Done: true}
	return out, nil
}

// stepCount gathers COUNT(op) — for value:: steps the text count of the
// literal plays the role of COUNT.
func (e *Estimator) stepCount(s *plan.Step) (uint64, error) {
	e.Probes++
	switch s.Axis {
	case mass.AxisValue:
		return e.Store.TextCount(e.Doc, s.Test.Name, "")
	case mass.AxisAttrValue:
		// An upper bound: the probe counts matching values across all
		// attribute names; the name filter only shrinks the set.
		return e.Store.AttrValueCount(e.Doc, s.Test.Name, "")
	case mass.AxisNumRange:
		return e.Store.NumericRangeBound(e.Doc, s.NumLo, s.NumLoIncl, s.NumHi, s.NumHiIncl)
	case mass.AxisAttribute:
		// Attribute steps count attribute names, not element names.
		if s.Test.Type == mass.TestName {
			return e.Store.CountAttrName(e.Doc, s.Test.Name)
		}
		// Wildcard / node(): the stored node total bounds the attribute
		// count (elements can carry any number of attributes).
		return e.Store.CountNodes(e.Doc)
	default:
		return e.Store.TestCount(e.Doc, s.Test, "")
	}
}

// tableOut is Table I: the upper bound of tuples a step operator produces,
// by axis class.
func tableOut(axis mass.Axis, count, in uint64) uint64 {
	switch axis {
	case mass.AxisChild, mass.AxisDescendant, mass.AxisDescendantOrSelf, mass.AxisValue, mass.AxisAttrValue, mass.AxisNumRange:
		// Downward axes can fan out, but never beyond the number of
		// matching nodes that exist.
		return count
	case mass.AxisSelf:
		return min64(count, in)
	case mass.AxisAttribute, mass.AxisNamespace:
		return count
	default:
		// parent, ancestor(-or-self), following(-sibling),
		// preceding(-sibling): bounded by the tuples received.
		return in
	}
}

// visitPred estimates a predicate operator applied to `in` candidate
// tuples and returns the bound on survivors.
func (e *Estimator) visitPred(op plan.Op, in uint64) (uint64, error) {
	switch t := op.(type) {
	case *plan.Exist:
		// The predicate subplan's leaf receives `in` tuples (Case 3).
		if _, err := e.visitPredPath(t.Pred, in); err != nil {
			return 0, err
		}
		// Case 6: no reduction is assumed for a bare exists filter.
		t.Cost = plan.Cost{In: in, Out: in, Sel: 1, Done: true}
		return in, nil
	case *plan.BinaryPred:
		return e.visitBinaryPred(t, in)
	case *plan.ExprPred:
		t.Cost = plan.Cost{In: in, Out: in, Sel: 1, Done: true}
		return in, nil
	default:
		return 0, fmt.Errorf("cost: %T is not a predicate operator", op)
	}
}

func (e *Estimator) visitBinaryPred(b *plan.BinaryPred, in uint64) (uint64, error) {
	switch b.Cond {
	case plan.CondAND, plan.CondOR:
		l, err := e.visitPred(b.Left, in)
		if err != nil {
			return 0, err
		}
		r, err := e.visitPred(b.Right, in)
		if err != nil {
			return 0, err
		}
		out := in
		if b.Cond == plan.CondAND {
			// Both filters apply; the tighter bound wins.
			out = min64(l, r)
		}
		b.Cost = plan.Cost{In: in, Out: out, Sel: rawSelectivity(in, out), Done: true}
		return out, nil
	default:
		// Comparison: estimate both sides; a value-based equivalence
		// bounds survivors by the value count (Case 5). The bound is
		// only sound when the path side selects the nodes the value
		// index actually covers: text() children (TC) or named
		// attributes (attribute value count). Element-valued
		// comparisons like [name='x'] get no reduction — an element's
		// string-value can match without any single text node matching.
		var vc uint64
		hasVC := false
		pathKind := valueComparableSide(b)
		for _, side := range []plan.Op{b.Left, b.Right} {
			switch t := side.(type) {
			case *plan.Literal:
				var err error
				e.Probes++
				switch pathKind {
				case sideAttr:
					t.Cost.TC, err = e.Store.AttrValueCount(e.Doc, t.Value, "")
				default:
					t.Cost.TC, err = e.Store.TextCount(e.Doc, t.Value, "")
				}
				if err != nil {
					return 0, err
				}
				t.Cost.Out = t.Cost.TC
				t.Cost.Done = true
				if b.Cond == plan.CondEQ && !t.Numeric && pathKind != sideOther {
					vc, hasVC = t.Cost.TC, true
				}
			default:
				if _, err := e.visitPredPath(side, in); err != nil {
					return 0, err
				}
			}
		}
		out := in
		if hasVC {
			out = min64(in, vc)
		}
		b.Cost = plan.Cost{In: in, Out: out, TC: vc, Sel: rawSelectivity(in, out), Done: true}
		return out, nil
	}
}

// sideKind classifies the non-literal side of a value comparison.
type sideKind uint8

const (
	sideOther sideKind = iota // element paths etc. — no value-index bound
	sideText                  // child::text(): the paper's Case 5
	sideAttr                  // attribute::name: bounded by attr value count
)

// valueComparableSide inspects a comparison's non-literal side and
// reports whether the value index bounds it.
func valueComparableSide(b *plan.BinaryPred) sideKind {
	for _, side := range []plan.Op{b.Left, b.Right} {
		st, ok := side.(*plan.Step)
		if !ok || st.Context != nil || len(st.Preds) != 0 {
			continue
		}
		switch {
		case st.Axis == mass.AxisChild && st.Test.Type == mass.TestText:
			return sideText
		case st.Axis == mass.AxisAttribute && st.Test.Type == mass.TestName:
			return sideAttr
		}
	}
	return sideOther
}

// visitPredPath estimates a predicate-path operator chain whose leaf
// receives `in` tuples (Case 3).
func (e *Estimator) visitPredPath(op plan.Op, in uint64) (uint64, error) {
	switch t := op.(type) {
	case *plan.Step:
		return e.visitStep(t, in, true)
	case *plan.Join:
		return e.visitContext(t, in, true)
	default:
		return 0, fmt.Errorf("cost: %T cannot appear on a predicate path", op)
	}
}

// rawSelectivity is δ before scaling: IN/OUT. Operators that filter away
// more tuples score higher. A zero OUT is maximally selective.
func rawSelectivity(in, out uint64) float64 {
	if out == 0 {
		if in == 0 {
			return 1
		}
		return float64(in) * 2 // strictly above any finite IN/OUT with OUT>=1
	}
	return float64(in) / float64(out)
}

// scaleSelectivity rescales every δ to [0,1] by the plan's maximum
// (paper §VI-B item 5).
func (e *Estimator) scaleSelectivity(p *plan.Plan) {
	ops := p.Operators()
	maxSel := 0.0
	for _, op := range ops {
		if c := plan.CostOf(op); c.Done && c.Sel > maxSel {
			maxSel = c.Sel
		}
	}
	if maxSel == 0 {
		return
	}
	for _, op := range ops {
		if c := plan.CostOf(op); c.Done {
			c.Sel /= maxSel
		}
	}
}

// Entry pairs an operator with its scaled selectivity in the ordered list
// L(P).
type Entry struct {
	Op  plan.Op
	Sel float64
}

// OrderedList returns L(P): the plan's operators sorted by selectivity
// ratio, most selective first (paper §VI-B). Only estimated operators
// appear.
func OrderedList(p *plan.Plan) []Entry {
	var out []Entry
	for _, op := range p.Operators() {
		if c := plan.CostOf(op); c.Done {
			out = append(out, Entry{Op: op, Sel: c.Sel})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Sel > out[j].Sel })
	return out
}

// Work is the estimator's proxy for a subplan's execution effort: the sum
// over its step operators of the tuples they touch (max(IN, OUT)). The
// optimizer accepts a transformation only when Work does not increase,
// which is what makes the heuristic "guaranteed to always produce a query
// plan that has better [or equal] execution time" (§I contribution 5).
func Work(op plan.Op) uint64 {
	var total uint64
	var walk func(plan.Op)
	walk = func(o plan.Op) {
		if s, ok := o.(*plan.Step); ok && s.Cost.Done {
			total += max64(s.Cost.In, s.Cost.Out)
		}
		for _, c := range o.Children() {
			walk(c)
		}
	}
	walk(op)
	return total
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
