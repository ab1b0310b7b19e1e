package plan

import (
	"fmt"

	"vamana/internal/mass"
	"vamana/internal/xpath"
)

// Build translates a parsed XPath expression into the default VAMANA query
// plan: "each node of the parse tree [is replaced] with its equivalent
// VAMANA algebra operator" (paper §V-A). No optimization is applied.
//
// The top-level expression must denote a node set: a location path or a
// union of location paths.
func Build(expr xpath.Expr) (*Plan, error) {
	b := &builder{}
	var ctxOp Op
	var err error
	switch e := expr.(type) {
	case *xpath.LocationPath:
		ctxOp, err = b.path(e)
	case *xpath.Binary:
		if e.Op == xpath.OpUnion {
			ctxOp, err = b.union(e)
		} else {
			err = fmt.Errorf("plan: top-level expression %q is not a node set", expr)
		}
	default:
		err = fmt.Errorf("plan: top-level expression %q is not a node set", expr)
	}
	if err != nil {
		return nil, err
	}
	p := &Plan{Root: &Root{Context: ctxOp, Distinct: true}}
	p.AssignIDs()
	return p, nil
}

// BuildPath translates a location path into a bare operator chain (no Root
// on top). The execution engine uses it to evaluate paths nested inside
// general predicate expressions.
func BuildPath(lp *xpath.LocationPath) (Op, error) {
	return (&builder{}).path(lp)
}

type builder struct{}

// path builds the context chain for a location path: the first location
// step becomes the leaf operator, each later step takes the previous one
// as its context child (paper Fig. 4).
func (b *builder) path(lp *xpath.LocationPath) (Op, error) {
	if len(lp.Steps) == 0 {
		// Bare "/": the document root itself; a self::node() step on the
		// engine-provided root context.
		return &Step{Axis: mass.AxisSelf, Test: mass.NodeTest{Type: mass.TestNode}}, nil
	}
	var cur Op
	for _, st := range lp.Steps {
		sop := &Step{Axis: st.Axis, Test: st.Test, Context: cur}
		for _, pred := range st.Predicates {
			pop, err := b.predicate(pred)
			if err != nil {
				return nil, err
			}
			sop.Preds = append(sop.Preds, pop)
		}
		// The compiler maps each parse-tree location step to exactly one
		// operator; the abbreviated // syntax becomes a single
		// descendant-flavored step (the paper's default plans show
		// "φ //::name" as one operator, Fig. 4), so fold the
		// descendant-or-self::node() helper into the step it prefixes.
		// Positional predicates pin the step to per-parent candidate
		// grouping (//x[2] != /descendant::x[2]), so the fold requires
		// every predicate to be order-free (ξ / β only).
		if prev, ok := cur.(*Step); ok &&
			prev.Axis == mass.AxisDescendantOrSelf && prev.Test.Type == mass.TestNode &&
			len(prev.Preds) == 0 && predsOrderFree(sop.Preds) {
			switch st.Axis {
			case mass.AxisChild, mass.AxisDescendant:
				sop.Axis = mass.AxisDescendant
				sop.Context = prev.Context
			case mass.AxisDescendantOrSelf:
				sop.Context = prev.Context
			}
		}
		cur = sop
	}
	return cur, nil
}

func (b *builder) union(e *xpath.Binary) (Op, error) {
	build := func(side xpath.Expr) (Op, error) {
		switch s := side.(type) {
		case *xpath.LocationPath:
			return b.path(s)
		case *xpath.Binary:
			if s.Op == xpath.OpUnion {
				return b.union(s)
			}
		}
		return nil, fmt.Errorf("plan: union operand %q is not a path", side)
	}
	left, err := build(e.Left)
	if err != nil {
		return nil, err
	}
	right, err := build(e.Right)
	if err != nil {
		return nil, err
	}
	return &Join{Cond: JoinUnion, Left: left, Right: right}, nil
}

// predicate compiles a predicate expression to a predicate operator:
//
//   - a relative path        -> ξ (exists)
//   - path/literal compares  -> β(EQ/NE/LT/LE/GT/GE)
//   - and/or of predicates   -> β(AND/OR)
//   - anything else          -> ε (general expression predicate)
//
// Keeping comparisons in β form (rather than ε) is what lets the
// optimizer recognize the value-index rewrite (paper §VI-C.2). An
// absolute path goes to ε: ξ and β evaluate their paths from the
// context node, and only ε's evaluator anchors a path at the root.
func (b *builder) predicate(e xpath.Expr) (Op, error) {
	switch t := e.(type) {
	case *xpath.LocationPath:
		if t.Absolute {
			return &ExprPred{Expr: e}, nil
		}
		sub, err := b.path(t)
		if err != nil {
			return nil, err
		}
		return &Exist{Pred: sub}, nil
	case *xpath.Binary:
		switch t.Op {
		case xpath.OpAnd, xpath.OpOr:
			l, err := b.predicate(t.Left)
			if err != nil {
				return nil, err
			}
			r, err := b.predicate(t.Right)
			if err != nil {
				return nil, err
			}
			cond := CondAND
			if t.Op == xpath.OpOr {
				cond = CondOR
			}
			return &BinaryPred{Cond: cond, Left: l, Right: r}, nil
		case xpath.OpEq, xpath.OpNeq, xpath.OpLt, xpath.OpLte, xpath.OpGt, xpath.OpGte:
			l, lok := b.compareSide(t.Left)
			r, rok := b.compareSide(t.Right)
			if lok && rok {
				return &BinaryPred{Cond: CondOf(t.Op), Left: l, Right: r}, nil
			}
		}
		return &ExprPred{Expr: e}, nil
	default:
		return &ExprPred{Expr: e}, nil
	}
}

// compareSide builds an operand of a β comparison: a literal, a number or
// a relative path. Other operand forms (functions, arithmetic, absolute
// paths) fall back to ε via the caller.
func (b *builder) compareSide(e xpath.Expr) (Op, bool) {
	switch t := e.(type) {
	case *xpath.Literal:
		return &Literal{Value: t.Value}, true
	case *xpath.Number:
		return &Literal{Value: t.String(), Numeric: true, Num: t.Value}, true
	case *xpath.LocationPath:
		if t.Absolute {
			return nil, false
		}
		sub, err := b.path(t)
		if err != nil {
			return nil, false
		}
		return sub, true
	default:
		return nil, false
	}
}

// predsOrderFree reports whether every predicate operator is insensitive
// to candidate order and grouping (no ε / positional predicates).
func predsOrderFree(preds []Op) bool {
	for _, p := range preds {
		switch p.(type) {
		case *Exist, *BinaryPred:
		default:
			return false
		}
	}
	return true
}

// CondOf maps a comparison operator to its predicate condition.
func CondOf(op xpath.BinaryOp) PredCond {
	switch op {
	case xpath.OpEq:
		return CondEQ
	case xpath.OpNeq:
		return CondNE
	case xpath.OpLt:
		return CondLT
	case xpath.OpLte:
		return CondLE
	case xpath.OpGt:
		return CondGT
	default:
		return CondGE
	}
}
