package dom

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"vamana/internal/xpath"
)

// The DOM engine's expression evaluator: standard XPath 1.0 semantics over
// materialized node sets. Kept deliberately independent from the VAMANA
// executor so the two implementations can cross-check each other.

type nodeSet []*Node

type evalCtx struct {
	node *Node
	pos  int
	last int
}

func (e *Engine) evalExpr(x xpath.Expr, c evalCtx) (any, error) {
	switch t := x.(type) {
	case *xpath.Literal:
		return t.Value, nil
	case *xpath.Number:
		return t.Value, nil
	case *xpath.Unary:
		v, err := e.evalExpr(t.Operand, c)
		if err != nil {
			return nil, err
		}
		return -e.num(v), nil
	case *xpath.LocationPath:
		return e.evalPath(t, c.node)
	case *xpath.Filter:
		return e.evalFilter(t, c)
	case *xpath.FuncCall:
		return e.evalFunc(t, c)
	case *xpath.Binary:
		return e.evalBinary(t, c)
	case *xpath.VarRef:
		return nil, fmt.Errorf("dom: variables are not supported")
	default:
		return nil, fmt.Errorf("dom: cannot evaluate %T", x)
	}
}

// evalPath is the conventional top-down strategy (§II): each step maps the
// whole current node set through the axis, materializing every
// intermediate result.
func (e *Engine) evalPath(lp *xpath.LocationPath, ctx *Node) (nodeSet, error) {
	cur := nodeSet{ctx}
	if lp.Absolute {
		cur = nodeSet{e.doc.Root}
	}
	for _, step := range lp.Steps {
		var next nodeSet
		for _, n := range cur {
			axisNodes, err := e.axisNodes(n, step.Axis)
			if err != nil {
				return nil, err
			}
			var cand nodeSet
			for _, a := range axisNodes {
				if matches(a, step.Test, step.Axis) {
					cand = append(cand, a)
				}
			}
			for _, pred := range step.Predicates {
				var kept nodeSet
				for i, a := range cand {
					v, err := e.evalExpr(pred, evalCtx{node: a, pos: i + 1, last: len(cand)})
					if err != nil {
						return nil, err
					}
					keep := false
					if num, ok := v.(float64); ok {
						keep = float64(i+1) == num
					} else {
						keep = e.bool_(v)
					}
					if keep {
						kept = append(kept, a)
					}
				}
				cand = kept
			}
			next = append(next, cand...)
		}
		cur = e.orderedSet(next)
	}
	return cur, nil
}

// orderedSet dedups and document-orders an intermediate node set. When
// SortEveryStep is false the dedup still happens (node-set semantics) but
// via the cheaper hash path.
func (e *Engine) orderedSet(ns nodeSet) nodeSet {
	if e.opts.SortEveryStep {
		return e.ordered(ns)
	}
	seen := make(map[*Node]struct{}, len(ns))
	out := ns[:0]
	for _, n := range ns {
		if _, dup := seen[n]; !dup {
			seen[n] = struct{}{}
			out = append(out, n)
		}
	}
	return out
}

func (e *Engine) evalFilter(f *xpath.Filter, c evalCtx) (any, error) {
	prim, err := e.evalExpr(f.Primary, c)
	if err != nil {
		return nil, err
	}
	ns, ok := prim.(nodeSet)
	if !ok {
		if len(f.Predicates) > 0 || f.Path != nil {
			return nil, fmt.Errorf("dom: filter applied to non-node-set")
		}
		return prim, nil
	}
	ns = e.ordered(ns)
	for _, pred := range f.Predicates {
		var kept nodeSet
		for i, n := range ns {
			v, err := e.evalExpr(pred, evalCtx{node: n, pos: i + 1, last: len(ns)})
			if err != nil {
				return nil, err
			}
			keep := false
			if num, ok := v.(float64); ok {
				keep = float64(i+1) == num
			} else {
				keep = e.bool_(v)
			}
			if keep {
				kept = append(kept, n)
			}
		}
		ns = kept
	}
	if f.Path == nil {
		return ns, nil
	}
	var out nodeSet
	for _, n := range ns {
		sub, err := e.evalPath(f.Path, n)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return nodeSet(e.ordered(out)), nil
}

func (e *Engine) evalBinary(b *xpath.Binary, c evalCtx) (any, error) {
	switch b.Op {
	case xpath.OpOr, xpath.OpAnd:
		l, err := e.evalExpr(b.Left, c)
		if err != nil {
			return nil, err
		}
		lb := e.bool_(l)
		if b.Op == xpath.OpOr && lb {
			return true, nil
		}
		if b.Op == xpath.OpAnd && !lb {
			return false, nil
		}
		r, err := e.evalExpr(b.Right, c)
		if err != nil {
			return nil, err
		}
		return e.bool_(r), nil
	case xpath.OpUnion:
		l, err := e.evalExpr(b.Left, c)
		if err != nil {
			return nil, err
		}
		r, err := e.evalExpr(b.Right, c)
		if err != nil {
			return nil, err
		}
		ln, lok := l.(nodeSet)
		rn, rok := r.(nodeSet)
		if !lok || !rok {
			return nil, fmt.Errorf("dom: union of non-node-sets")
		}
		return nodeSet(e.ordered(append(append(nodeSet{}, ln...), rn...))), nil
	case xpath.OpAdd, xpath.OpSub, xpath.OpMul, xpath.OpDiv, xpath.OpMod:
		l, err := e.evalExpr(b.Left, c)
		if err != nil {
			return nil, err
		}
		r, err := e.evalExpr(b.Right, c)
		if err != nil {
			return nil, err
		}
		x, y := e.num(l), e.num(r)
		switch b.Op {
		case xpath.OpAdd:
			return x + y, nil
		case xpath.OpSub:
			return x - y, nil
		case xpath.OpMul:
			return x * y, nil
		case xpath.OpDiv:
			return x / y, nil
		default:
			return math.Mod(x, y), nil
		}
	default:
		l, err := e.evalExpr(b.Left, c)
		if err != nil {
			return nil, err
		}
		r, err := e.evalExpr(b.Right, c)
		if err != nil {
			return nil, err
		}
		return e.compare(b.Op, l, r), nil
	}
}

func (e *Engine) compare(op xpath.BinaryOp, l, r any) bool {
	lns, lok := l.(nodeSet)
	rns, rok := r.(nodeSet)
	rel := op == xpath.OpLt || op == xpath.OpLte || op == xpath.OpGt || op == xpath.OpGte
	cmpS := func(a, b string) bool {
		switch op {
		case xpath.OpEq:
			return a == b
		case xpath.OpNeq:
			return a != b
		}
		return false
	}
	cmpN := func(a, b float64) bool {
		switch op {
		case xpath.OpEq:
			return a == b
		case xpath.OpNeq:
			return a != b
		case xpath.OpLt:
			return a < b
		case xpath.OpLte:
			return a <= b
		case xpath.OpGt:
			return a > b
		case xpath.OpGte:
			return a >= b
		}
		return false
	}
	switch {
	case lok && rok:
		for _, a := range lns {
			for _, b := range rns {
				if rel {
					if cmpN(toNum(a.StringValue()), toNum(b.StringValue())) {
						return true
					}
				} else if cmpS(a.StringValue(), b.StringValue()) {
					return true
				}
			}
		}
		return false
	case lok || rok:
		ns, other, flip := lns, r, false
		if rok {
			ns, other, flip = rns, l, true
		}
		if ob, isB := other.(bool); isB {
			a, b := len(ns) > 0, ob
			if flip {
				a, b = b, a
			}
			return cmpN(boolNum(a), boolNum(b))
		}
		for _, n := range ns {
			sv := n.StringValue()
			var hit bool
			if onum, isN := other.(float64); isN || rel {
				var b float64
				if isN {
					b = onum
				} else {
					b = e.num(other)
				}
				a := toNum(sv)
				if flip {
					a, b = b, a
				}
				hit = cmpN(a, b)
			} else {
				a, b := sv, e.str(other)
				if flip {
					a, b = b, a
				}
				hit = cmpS(a, b)
			}
			if hit {
				return true
			}
		}
		return false
	default:
		if _, isB := l.(bool); isB {
			return cmpN(boolNum(e.bool_(l)), boolNum(e.bool_(r)))
		}
		if _, isB := r.(bool); isB {
			return cmpN(boolNum(e.bool_(l)), boolNum(e.bool_(r)))
		}
		if rel {
			return cmpN(e.num(l), e.num(r))
		}
		if _, isN := l.(float64); isN {
			return cmpN(e.num(l), e.num(r))
		}
		if _, isN := r.(float64); isN {
			return cmpN(e.num(l), e.num(r))
		}
		return cmpS(e.str(l), e.str(r))
	}
}

func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (e *Engine) evalFunc(f *xpath.FuncCall, c evalCtx) (any, error) {
	arg := func(i int) (any, error) { return e.evalExpr(f.Args[i], c) }
	switch f.Name {
	case "position":
		return float64(c.pos), nil
	case "last":
		return float64(c.last), nil
	case "count":
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(nodeSet)
		if !ok {
			return nil, fmt.Errorf("dom: count() needs a node set")
		}
		return float64(len(e.ordered(ns))), nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	case "not":
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		return !e.bool_(v), nil
	case "boolean":
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		return e.bool_(v), nil
	case "number":
		if len(f.Args) == 0 {
			return toNum(c.node.StringValue()), nil
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		return e.num(v), nil
	case "string":
		if len(f.Args) == 0 {
			return c.node.StringValue(), nil
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		return e.str(v), nil
	case "concat":
		var b strings.Builder
		for i := range f.Args {
			v, err := arg(i)
			if err != nil {
				return nil, err
			}
			b.WriteString(e.str(v))
		}
		return b.String(), nil
	case "contains":
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		b, err := arg(1)
		if err != nil {
			return nil, err
		}
		return strings.Contains(e.str(a), e.str(b)), nil
	case "starts-with":
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		b, err := arg(1)
		if err != nil {
			return nil, err
		}
		return strings.HasPrefix(e.str(a), e.str(b)), nil
	case "string-length":
		if len(f.Args) == 0 {
			return float64(len([]rune(c.node.StringValue()))), nil
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		return float64(len([]rune(e.str(v)))), nil
	case "normalize-space":
		s := ""
		if len(f.Args) == 0 {
			s = c.node.StringValue()
		} else {
			v, err := arg(0)
			if err != nil {
				return nil, err
			}
			s = e.str(v)
		}
		return strings.Join(strings.Fields(s), " "), nil
	case "name", "local-name":
		n := c.node
		if len(f.Args) == 1 {
			v, err := arg(0)
			if err != nil {
				return nil, err
			}
			ns, ok := v.(nodeSet)
			if !ok || len(ns) == 0 {
				return "", nil
			}
			n = e.ordered(ns)[0]
		}
		return n.Name, nil
	case "sum":
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(nodeSet)
		if !ok {
			return nil, fmt.Errorf("dom: sum() needs a node set")
		}
		total := 0.0
		for _, n := range ns {
			total += toNum(n.StringValue())
		}
		return total, nil
	case "floor", "ceiling", "round":
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		n := e.num(v)
		switch f.Name {
		case "floor":
			return math.Floor(n), nil
		case "ceiling":
			return math.Ceil(n), nil
		default:
			return round(n), nil
		}
	default:
		return nil, fmt.Errorf("dom: unknown function %s()", f.Name)
	}
}

// round is XPath 1.0's round() (§4.4): the closest integer, with halves
// going towards positive infinity, and −0 for a negative value in
// [−0.5, 0). The engine has its own copy: the oracle shares no number
// semantics with what it checks.
func round(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	if x < 0 && x >= -0.5 {
		return math.Copysign(0, -1)
	}
	r := math.Floor(x)
	if x-r >= 0.5 {
		r++
	}
	return r
}

func (e *Engine) bool_(v any) bool {
	switch t := v.(type) {
	case bool:
		return t
	case float64:
		return t != 0 && !math.IsNaN(t)
	case string:
		return len(t) > 0
	case nodeSet:
		return len(t) > 0
	}
	return false
}

func (e *Engine) num(v any) float64 {
	switch t := v.(type) {
	case float64:
		return t
	case bool:
		return boolNum(t)
	case string:
		return toNum(t)
	case nodeSet:
		return toNum(e.str(v))
	}
	return math.NaN()
}

func (e *Engine) str(v any) string {
	switch t := v.(type) {
	case string:
		return t
	case bool:
		if t {
			return "true"
		}
		return "false"
	case float64:
		if t == math.Trunc(t) && !math.IsInf(t, 0) && math.Abs(t) < 1e15 {
			return strconv.FormatInt(int64(t), 10)
		}
		return strconv.FormatFloat(t, 'g', -1, 64)
	case nodeSet:
		if len(t) == 0 {
			return ""
		}
		first := t[0]
		for _, n := range t[1:] {
			if n.Pos < first.Pos {
				first = n
			}
		}
		return first.StringValue()
	}
	return ""
}

func toNum(s string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// Keys returns the FLEX keys of a result node list, for cross-engine
// comparisons.
func Keys(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = string(n.Key)
	}
	sort.Strings(out)
	return out
}
