package exec

import (
	"fmt"
	"math"

	"vamana/internal/flex"
	"vamana/internal/plan"
	"vamana/internal/xpath"
)

// predEval evaluates one predicate operator against a candidate tuple.
// pos is the candidate's proximity position; last is the context size or
// -1 when unknown (steps switch to batch mode when a predicate needs it).
type predEval interface {
	eval(candidate flex.Key, pos, last int) (bool, error)
}

// buildPred constructs the evaluator for a predicate operator.
func (e *env) buildPred(op plan.Op) (predEval, error) {
	switch t := op.(type) {
	case *plan.Exist:
		sub, err := e.build(t.Pred)
		if err != nil {
			return nil, err
		}
		return &existEval{sub: sub}, nil
	case *plan.BinaryPred:
		if t.Cond == plan.CondAND || t.Cond == plan.CondOR {
			l, err := e.buildPred(t.Left)
			if err != nil {
				return nil, err
			}
			r, err := e.buildPred(t.Right)
			if err != nil {
				return nil, err
			}
			return &boolEval{and: t.Cond == plan.CondAND, left: l, right: r}, nil
		}
		l, err := e.buildSide(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.buildSide(t.Right)
		if err != nil {
			return nil, err
		}
		return &cmpEval{cond: t.Cond, left: l, right: r}, nil
	case *plan.ExprPred:
		return &exprEvalPred{env: e, expr: t.Expr}, nil
	default:
		return nil, fmt.Errorf("exec: %T is not a predicate operator", op)
	}
}

// existEval implements ξ: the candidate satisfies the predicate when the
// subplan, with its leaf context bound to the candidate, yields at least
// one tuple (paper §V-C.4). The one-tuple pull buffer lives on the
// evaluator (already heap-resident) so the existence probe allocates
// nothing, and its demand of one propagates down the subplan — batched
// execution stays fully lazy under early termination.
type existEval struct {
	sub execNode
	buf [1]flex.Key
}

func (p *existEval) eval(candidate flex.Key, _, _ int) (bool, error) {
	p.sub.reset(candidate)
	n, err := p.sub.nextBatch(p.buf[:])
	return n > 0 && err == nil, err
}

// boolEval implements β(AND)/β(OR).
type boolEval struct {
	and         bool
	left, right predEval
}

func (p *boolEval) eval(candidate flex.Key, pos, last int) (bool, error) {
	l, err := p.left.eval(candidate, pos, last)
	if err != nil {
		return false, err
	}
	if p.and && !l {
		return false, nil
	}
	if !p.and && l {
		return true, nil
	}
	return p.right.eval(candidate, pos, last)
}

// sideVal is one operand of a β comparison evaluated for a candidate:
// either a single literal value or the string values of a node set.
type sideVal interface {
	values(candidate flex.Key) (vals []string, numeric bool, err error)
}

func (e *env) buildSide(op plan.Op) (sideVal, error) {
	switch t := op.(type) {
	case *plan.Literal:
		return &literalSide{val: t.Value, numeric: t.Numeric}, nil
	default:
		sub, err := e.build(op)
		if err != nil {
			return nil, err
		}
		return &pathSide{env: e, sub: sub}, nil
	}
}

type literalSide struct {
	val     string
	numeric bool
}

func (s *literalSide) values(flex.Key) ([]string, bool, error) {
	return []string{s.val}, s.numeric, nil
}

type pathSide struct {
	env *env
	sub execNode
	// buf is the drain buffer for the operand subplan; on the evaluator
	// (not the stack) so values() costs no per-call allocation for it.
	buf [16]flex.Key
}

func (s *pathSide) values(candidate flex.Key) ([]string, bool, error) {
	s.sub.reset(candidate)
	var out []string
	for {
		n, err := s.sub.nextBatch(s.buf[:])
		for _, k := range s.buf[:n] {
			sv, serr := s.env.view.StringValue(s.env.doc, k)
			if serr != nil {
				return nil, false, serr
			}
			out = append(out, sv)
		}
		if err != nil {
			return nil, false, err
		}
		if n == 0 {
			return out, false, nil
		}
	}
}

// cmpEval implements β(EQ/NE/LT/LE/GT/GE) with XPath 1.0 existential
// semantics: the predicate holds when some pair of operand values
// satisfies the comparison. Relational operators always compare
// numerically; equality compares numerically when either side is numeric.
type cmpEval struct {
	cond        plan.PredCond
	left, right sideVal
}

func (p *cmpEval) eval(candidate flex.Key, _, _ int) (bool, error) {
	lv, lnum, err := p.left.values(candidate)
	if err != nil {
		return false, err
	}
	rv, rnum, err := p.right.values(candidate)
	if err != nil {
		return false, err
	}
	numeric := lnum || rnum || p.cond == plan.CondLT || p.cond == plan.CondLE ||
		p.cond == plan.CondGT || p.cond == plan.CondGE
	for _, a := range lv {
		for _, b := range rv {
			if numeric {
				if compareNum(p.cond, toNumber(a), toNumber(b)) {
					return true, nil
				}
			} else if compareStr(p.cond, a, b) {
				return true, nil
			}
		}
	}
	return false, nil
}

func compareNum(cond plan.PredCond, a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		// NaN compares false to everything, itself included, except by
		// != (XPath 1.0 §3.4 follows IEEE 754).
		return cond == plan.CondNE
	}
	switch cond {
	case plan.CondEQ:
		return a == b
	case plan.CondNE:
		return a != b
	case plan.CondLT:
		return a < b
	case plan.CondLE:
		return a <= b
	case plan.CondGT:
		return a > b
	case plan.CondGE:
		return a >= b
	}
	return false
}

func compareStr(cond plan.PredCond, a, b string) bool {
	switch cond {
	case plan.CondEQ:
		return a == b
	case plan.CondNE:
		return a != b
	}
	return false
}

// exprEvalPred evaluates an arbitrary expression predicate (ε). A numeric
// result is positional shorthand ([2] means [position()=2]); any other
// result is coerced to boolean.
type exprEvalPred struct {
	env  *env
	expr xpath.Expr
}

func (p *exprEvalPred) eval(candidate flex.Key, pos, last int) (bool, error) {
	v, err := p.env.evalExpr(p.expr, evalCtx{key: candidate, pos: pos, last: last})
	if err != nil {
		return false, err
	}
	if n, ok := v.(float64); ok {
		return float64(pos) == n, nil
	}
	return toBool(v), nil
}
