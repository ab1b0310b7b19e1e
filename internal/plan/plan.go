// Package plan defines VAMANA's physical algebra (paper §V): the operator
// trees that the compiler produces from XPath parse trees, the cost
// estimator annotates, the optimizer rewrites, and the execution engine
// runs.
//
// An operator is written opᶜᵒⁿᵈ_id in the paper; here every operator
// carries a numeric ID and a Cost annotation block. The operator kinds are
// exactly the paper's: Root (R), Step (φ), Literal (L), Exist predicate
// (ξ), Binary predicate (β) and Join (J), plus ExprPred, a catch-all
// predicate operator for general XPath expressions (functions, position,
// arithmetic) that the paper's algebra leaves implicit.
package plan

import (
	"fmt"
	"strings"

	"vamana/internal/mass"
	"vamana/internal/xpath"
)

// Cost is the estimator's annotation on an operator (paper §VI-B):
// COUNT(op), TC(op), IN(op), OUT(op) and the scaled selectivity ratio δ.
type Cost struct {
	Count uint64  // nodes satisfying the node test in the index
	TC    uint64  // text count (literal operators)
	In    uint64  // max tuples received from the context child
	Out   uint64  // max tuples produced
	Sel   float64 // selectivity ratio δ scaled to [0,1]
	Done  bool    // set once the estimator has visited the operator
}

// Base carries the identity and cost annotation every operator shares.
type Base struct {
	ID   int
	Cost Cost
}

// base returns the embedded Base (implements Op).
func (b *Base) base() *Base { return b }

// Op is a physical operator.
type Op interface {
	base() *Base
	// Children returns all child operators (context children first).
	Children() []Op
	// Label renders the operator head, e.g. "φ3 parent::person".
	Label() string
}

// Root is R: the top of a query plan. It returns every tuple produced by
// its context child (paper §V-C.1). Distinct requests duplicate
// elimination on the output node-set.
type Root struct {
	Base
	Context  Op
	Distinct bool
}

// Step is φ(axis::nodetest): one location step evaluated against the MASS
// indexes (paper §V-C.2). A nil Context makes it a leaf whose context is
// set dynamically by the execution engine (the document root, or the
// filtered tuple on a predicate path). Preds are applied in order; the
// paper's "at most one predicate operator" corresponds to len(Preds) <= 1,
// the generalization supports XPath's chained predicates.
type Step struct {
	Base
	Axis    mass.Axis
	Test    mass.NodeTest
	Context Op
	Preds   []Op
	// Numeric range bounds, used only when Axis is mass.AxisNumRange
	// (the optimizer's range-predicate rewrite). ±Inf open a side.
	NumLo, NumHi         float64
	NumLoIncl, NumHiIncl bool
	// Prov names the rewrite rule that produced or moved this step
	// (empty for steps straight out of the compiler). The cost
	// observatory keys q-error profiles by axis × Prov so estimation
	// error can be traced back to the rewrite that introduced it.
	Prov string
}

// Literal is L(value) (paper §V-C.3).
type Literal struct {
	Base
	Value string
	// Numeric is set when the literal originated from a number token, in
	// which case comparisons coerce numerically.
	Numeric bool
	Num     float64
}

// Exist is ξ: an exists predicate with one predicate child (paper §V-C.4).
// The child subplan's leaf context is bound to each candidate tuple.
type Exist struct {
	Base
	Pred Op
}

// PredCond is a binary predicate condition.
type PredCond uint8

const (
	CondEQ PredCond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
	CondAND
	CondOR
)

var condNames = [...]string{"EQ", "NE", "LT", "LE", "GT", "GE", "AND", "OR"}

// String returns the condition mnemonic used in plan displays.
func (c PredCond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("COND(%d)", uint8(c))
}

// BinaryPred is β(cond): a predicate with two predicate children
// (paper §V-C.5).
type BinaryPred struct {
	Base
	Cond        PredCond
	Left, Right Op
}

// ExprPred evaluates an arbitrary XPath expression as a predicate —
// positions, functions, arithmetic. It exists so VAMANA supports the full
// predicate language even where the paper's algebra shows only ξ and β.
type ExprPred struct {
	Base
	Expr xpath.Expr
}

// JoinCond is a join operator condition.
type JoinCond uint8

const (
	// JoinUnion merges two node streams, eliminating duplicates —
	// XPath's '|' operator.
	JoinUnion JoinCond = iota
)

// String returns the join-condition mnemonic.
func (c JoinCond) String() string {
	if c == JoinUnion {
		return "UNION"
	}
	return fmt.Sprintf("JOIN(%d)", uint8(c))
}

// Join is J(cond) with two context children (paper §V-C.6).
type Join struct {
	Base
	Cond        JoinCond
	Left, Right Op
}

// Children implementations.

func (r *Root) Children() []Op {
	if r.Context == nil {
		return nil
	}
	return []Op{r.Context}
}

func (s *Step) Children() []Op {
	var out []Op
	if s.Context != nil {
		out = append(out, s.Context)
	}
	out = append(out, s.Preds...)
	return out
}

func (l *Literal) Children() []Op    { return nil }
func (e *Exist) Children() []Op      { return []Op{e.Pred} }
func (b *BinaryPred) Children() []Op { return []Op{b.Left, b.Right} }
func (e *ExprPred) Children() []Op   { return nil }
func (j *Join) Children() []Op       { return []Op{j.Left, j.Right} }

// Label implementations, matching the paper's plan figures.

func (r *Root) Label() string { return fmt.Sprintf("R%d", r.ID) }

func (s *Step) Label() string {
	switch s.Axis {
	case mass.AxisValue:
		return fmt.Sprintf("φ%d value::%q", s.ID, s.Test.Name)
	case mass.AxisAttrValue:
		if s.Test.Attr != "" {
			return fmt.Sprintf("φ%d attr-value::@%s=%q", s.ID, s.Test.Attr, s.Test.Name)
		}
		return fmt.Sprintf("φ%d attr-value::%q", s.ID, s.Test.Name)
	case mass.AxisNumRange:
		lb, rb := "(", ")"
		if s.NumLoIncl {
			lb = "["
		}
		if s.NumHiIncl {
			rb = "]"
		}
		return fmt.Sprintf("φ%d num-range::%s%g,%g%s", s.ID, lb, s.NumLo, s.NumHi, rb)
	default:
		return fmt.Sprintf("φ%d %s::%s", s.ID, s.Axis, s.Test)
	}
}

func (l *Literal) Label() string { return fmt.Sprintf("L%d %q", l.ID, l.Value) }

func (e *Exist) Label() string { return fmt.Sprintf("ξ%d", e.ID) }

func (b *BinaryPred) Label() string { return fmt.Sprintf("β%d %s", b.ID, b.Cond) }

func (e *ExprPred) Label() string { return fmt.Sprintf("ε%d [%s]", e.ID, e.Expr) }

func (j *Join) Label() string { return fmt.Sprintf("J%d %s", j.ID, j.Cond) }

// Plan is a complete query plan.
type Plan struct {
	Root *Root
}

// Operators returns every operator in the plan, preorder.
func (p *Plan) Operators() []Op {
	var out []Op
	var walk func(Op)
	walk = func(op Op) {
		out = append(out, op)
		for _, c := range op.Children() {
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

// AssignIDs renumbers every operator 1..m preorder; called after
// construction and after each rewrite so displays stay coherent.
func (p *Plan) AssignIDs() {
	id := 1
	for _, op := range p.Operators() {
		op.base().ID = id
		id++
	}
}

// String renders the plan as an indented tree, costs included when
// estimated — the textual equivalent of the paper's plan figures.
func (p *Plan) String() string {
	var b strings.Builder
	var walk func(op Op, indent string, role string)
	walk = func(op Op, indent string, role string) {
		b.WriteString(indent)
		if role != "" {
			b.WriteString(role)
			b.WriteByte(' ')
		}
		b.WriteString(op.Label())
		if c := op.base().Cost; c.Done {
			fmt.Fprintf(&b, "  {COUNT=%d TC=%d IN=%d OUT=%d δ=%.3f}", c.Count, c.TC, c.In, c.Out, c.Sel)
		}
		b.WriteByte('\n')
		switch t := op.(type) {
		case *Step:
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
	walk(p.Root, "", "")
	return b.String()
}

// ContextPath returns the plan's context path (paper §V-A): the chain of
// operators from which context is iteratively obtained, starting at the
// root's context child and following context children to the leaf.
func (p *Plan) ContextPath() []Op {
	var out []Op
	var cur Op = p.Root.Context
	for cur != nil {
		out = append(out, cur)
		switch t := cur.(type) {
		case *Step:
			cur = t.Context
		default:
			cur = nil
		}
	}
	return out
}

// Clone deep-copies the plan (used by the optimizer to test rewrites
// without destroying the original).
func (p *Plan) Clone() *Plan {
	return &Plan{Root: cloneOp(p.Root).(*Root)}
}

// CloneOp deep-copies an operator subtree.
func CloneOp(op Op) Op { return cloneOp(op) }

// CostOf returns a pointer to the operator's cost annotation block.
func CostOf(op Op) *Cost { return &op.base().Cost }

func cloneOp(op Op) Op {
	switch t := op.(type) {
	case *Root:
		c := *t
		if t.Context != nil {
			c.Context = cloneOp(t.Context)
		}
		return &c
	case *Step:
		c := *t
		if t.Context != nil {
			c.Context = cloneOp(t.Context)
		}
		c.Preds = make([]Op, len(t.Preds))
		for i, p := range t.Preds {
			c.Preds[i] = cloneOp(p)
		}
		return &c
	case *Literal:
		c := *t
		return &c
	case *Exist:
		c := *t
		c.Pred = cloneOp(t.Pred)
		return &c
	case *BinaryPred:
		c := *t
		c.Left = cloneOp(t.Left)
		c.Right = cloneOp(t.Right)
		return &c
	case *ExprPred:
		c := *t
		return &c
	case *Join:
		c := *t
		c.Left = cloneOp(t.Left)
		c.Right = cloneOp(t.Right)
		return &c
	default:
		panic(fmt.Sprintf("plan: unknown operator %T", op))
	}
}
