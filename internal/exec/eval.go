package exec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"vamana/internal/flex"
	"vamana/internal/plan"
	"vamana/internal/xpath"
)

// The general expression evaluator implements the XPath 1.0 value model —
// node-set, boolean, number, string — for the predicate expressions that
// fall outside the paper's ξ/β algebra (functions, positions, arithmetic).
//
// A value is one of: bool, float64, string, or []flex.Key (a node set in
// document order).
type value any

// evalCtx is the dynamic context of one expression evaluation.
type evalCtx struct {
	key  flex.Key
	pos  int // proximity position (1-based); 0 when not in a predicate
	last int // context size; -1 when unknown
}

func (e *env) evalExpr(x xpath.Expr, c evalCtx) (value, error) {
	switch t := x.(type) {
	case *xpath.Literal:
		return t.Value, nil
	case *xpath.Number:
		return t.Value, nil
	case *xpath.VarRef:
		ns, ok := e.vars[t.Name]
		if !ok {
			return nil, fmt.Errorf("exec: unbound variable $%s", t.Name)
		}
		return append([]flex.Key(nil), ns...), nil
	case *xpath.Unary:
		v, err := e.evalExpr(t.Operand, c)
		if err != nil {
			return nil, err
		}
		return -e.toNum(v), nil
	case *xpath.LocationPath:
		return e.evalPath(t, c.key)
	case *xpath.Filter:
		return e.evalFilter(t, c)
	case *xpath.FuncCall:
		return e.evalFunc(t, c)
	case *xpath.Binary:
		return e.evalBinary(t, c)
	default:
		return nil, fmt.Errorf("exec: cannot evaluate %T", x)
	}
}

// evalPath runs a location path from ctx (or the document root when the
// path is absolute) and returns the node set in document order.
func (e *env) evalPath(lp *xpath.LocationPath, ctx flex.Key) ([]flex.Key, error) {
	op, err := plan.BuildPath(lp)
	if err != nil {
		return nil, err
	}
	sub, err := e.build(op)
	if err != nil {
		return nil, err
	}
	start := ctx
	if lp.Absolute {
		start = flex.Root
	}
	sub.reset(start)
	seen := map[flex.Key]struct{}{}
	var out []flex.Key
	buf := make([]flex.Key, 64)
	for {
		n, err := sub.nextBatch(buf)
		for _, k := range buf[:n] {
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, k)
			}
		}
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (e *env) evalFilter(f *xpath.Filter, c evalCtx) (value, error) {
	prim, err := e.evalExpr(f.Primary, c)
	if err != nil {
		return nil, err
	}
	ns, ok := prim.([]flex.Key)
	if !ok {
		if len(f.Predicates) > 0 || f.Path != nil {
			return nil, fmt.Errorf("exec: filter applied to non-node-set %T", prim)
		}
		return prim, nil
	}
	for _, pred := range f.Predicates {
		var kept []flex.Key
		for i, k := range ns {
			v, err := e.evalExpr(pred, evalCtx{key: k, pos: i + 1, last: len(ns)})
			if err != nil {
				return nil, err
			}
			keep := false
			if n, isNum := v.(float64); isNum {
				keep = float64(i+1) == n
			} else {
				keep = toBool(v)
			}
			if keep {
				kept = append(kept, k)
			}
		}
		ns = kept
	}
	if f.Path == nil {
		return ns, nil
	}
	seen := map[flex.Key]struct{}{}
	var out []flex.Key
	for _, k := range ns {
		sub, err := e.evalPath(f.Path, k)
		if err != nil {
			return nil, err
		}
		for _, r := range sub {
			if _, dup := seen[r]; !dup {
				seen[r] = struct{}{}
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (e *env) evalBinary(b *xpath.Binary, c evalCtx) (value, error) {
	switch b.Op {
	case xpath.OpOr, xpath.OpAnd:
		l, err := e.evalExpr(b.Left, c)
		if err != nil {
			return nil, err
		}
		lb := e.boolOf(l)
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
		return e.boolOf(r), nil
	case xpath.OpUnion:
		l, err := e.evalExpr(b.Left, c)
		if err != nil {
			return nil, err
		}
		r, err := e.evalExpr(b.Right, c)
		if err != nil {
			return nil, err
		}
		ln, lok := l.([]flex.Key)
		rn, rok := r.([]flex.Key)
		if !lok || !rok {
			return nil, fmt.Errorf("exec: union of non-node-sets")
		}
		seen := map[flex.Key]struct{}{}
		var out []flex.Key
		for _, k := range append(ln, rn...) {
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, k)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	case xpath.OpAdd, xpath.OpSub, xpath.OpMul, xpath.OpDiv, xpath.OpMod:
		l, err := e.evalExpr(b.Left, c)
		if err != nil {
			return nil, err
		}
		r, err := e.evalExpr(b.Right, c)
		if err != nil {
			return nil, err
		}
		x, y := e.toNum(l), e.toNum(r)
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
	default: // comparisons
		l, err := e.evalExpr(b.Left, c)
		if err != nil {
			return nil, err
		}
		r, err := e.evalExpr(b.Right, c)
		if err != nil {
			return nil, err
		}
		return e.compare(b.Op, l, r)
	}
}

// compare implements XPath 1.0 §3.4 comparison semantics, including the
// existential rules for node-sets.
func (e *env) compare(op xpath.BinaryOp, l, r value) (bool, error) {
	cond := plan.CondOf(op)
	relational := op != xpath.OpEq && op != xpath.OpNeq

	lns, lIsNS := l.([]flex.Key)
	rns, rIsNS := r.([]flex.Key)
	switch {
	case lIsNS && rIsNS:
		for _, a := range lns {
			sa, err := e.stringValue(a)
			if err != nil {
				return false, err
			}
			for _, b := range rns {
				sb, err := e.stringValue(b)
				if err != nil {
					return false, err
				}
				if relational {
					if compareNum(cond, toNumber(sa), toNumber(sb)) {
						return true, nil
					}
				} else if compareStr(cond, sa, sb) {
					return true, nil
				}
			}
		}
		return false, nil
	case lIsNS || rIsNS:
		ns, other := lns, r
		flip := false
		if rIsNS {
			ns, other, flip = rns, l, true
		}
		if o, ok := other.(bool); ok {
			// A boolean compares with the set's boolean value, which
			// an empty set has too (§3.4).
			return compareBool(cond, len(ns) > 0, o, flip), nil
		}
		for _, k := range ns {
			sv, err := e.stringValue(k)
			if err != nil {
				return false, err
			}
			var hit bool
			switch o := other.(type) {
			case float64:
				a, b := toNumber(sv), o
				if flip {
					a, b = b, a
				}
				hit = compareNum(cond, a, b)
			default:
				so := e.toStr(other)
				if relational {
					a, b := toNumber(sv), toNumber(so)
					if flip {
						a, b = b, a
					}
					hit = compareNum(cond, a, b)
				} else {
					hit = compareStr(cond, sv, so)
				}
			}
			if hit {
				return true, nil
			}
		}
		return false, nil
	default:
		if _, ok := l.(bool); ok || func() bool { _, ok := r.(bool); return ok }() {
			a, b := e.boolOf(l), e.boolOf(r)
			return compareBool(cond, a, b, false), nil
		}
		if relational {
			return compareNum(cond, e.toNum(l), e.toNum(r)), nil
		}
		if _, ok := l.(float64); ok {
			return compareNum(cond, e.toNum(l), e.toNum(r)), nil
		}
		if _, ok := r.(float64); ok {
			return compareNum(cond, e.toNum(l), e.toNum(r)), nil
		}
		return compareStr(cond, e.toStr(l), e.toStr(r)), nil
	}
}

func compareBool(cond plan.PredCond, a, b, flip bool) bool {
	if flip {
		a, b = b, a
	}
	n := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	return compareNum(cond, n(a), n(b))
}

func (e *env) evalFunc(f *xpath.FuncCall, c evalCtx) (value, error) {
	arg := func(i int) (value, error) { return e.evalExpr(f.Args[i], c) }
	need := func(n int) error {
		if len(f.Args) != n {
			return fmt.Errorf("exec: %s() takes %d argument(s), got %d", f.Name, n, len(f.Args))
		}
		return nil
	}
	switch f.Name {
	case "position":
		if c.pos <= 0 {
			return nil, fmt.Errorf("exec: position() outside a predicate")
		}
		return float64(c.pos), nil
	case "last":
		if c.last < 0 {
			return nil, fmt.Errorf("exec: last() unavailable in this context")
		}
		return float64(c.last), nil
	case "count":
		if err := need(1); err != nil {
			return nil, err
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		ns, ok := v.([]flex.Key)
		if !ok {
			return nil, fmt.Errorf("exec: count() needs a node set")
		}
		return float64(len(ns)), nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	case "not":
		if err := need(1); err != nil {
			return nil, err
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		return !e.boolOf(v), nil
	case "boolean":
		if err := need(1); err != nil {
			return nil, err
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		return e.boolOf(v), nil
	case "number":
		if len(f.Args) == 0 {
			sv, err := e.stringValue(c.key)
			if err != nil {
				return nil, err
			}
			return toNumber(sv), nil
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		return e.toNum(v), nil
	case "string":
		if len(f.Args) == 0 {
			return e.stringValue(c.key)
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		return e.toStr(v), nil
	case "concat":
		var b strings.Builder
		for i := range f.Args {
			v, err := arg(i)
			if err != nil {
				return nil, err
			}
			b.WriteString(e.toStr(v))
		}
		return b.String(), nil
	case "contains", "starts-with":
		if err := need(2); err != nil {
			return nil, err
		}
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		b, err := arg(1)
		if err != nil {
			return nil, err
		}
		if f.Name == "contains" {
			return strings.Contains(e.toStr(a), e.toStr(b)), nil
		}
		return strings.HasPrefix(e.toStr(a), e.toStr(b)), nil
	case "substring":
		if len(f.Args) != 2 && len(f.Args) != 3 {
			return nil, fmt.Errorf("exec: substring() takes 2 or 3 arguments")
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		s := []rune(e.toStr(v))
		sv, err := arg(1)
		if err != nil {
			return nil, err
		}
		start := int(round(e.toNum(sv))) - 1
		end := len(s)
		if len(f.Args) == 3 {
			lv, err := arg(2)
			if err != nil {
				return nil, err
			}
			end = start + int(round(e.toNum(lv)))
		}
		if start < 0 {
			start = 0
		}
		if end > len(s) {
			end = len(s)
		}
		if start >= end {
			return "", nil
		}
		return string(s[start:end]), nil
	case "string-length":
		var s string
		if len(f.Args) == 0 {
			var err error
			if s, err = e.stringValue(c.key); err != nil {
				return nil, err
			}
		} else {
			v, err := arg(0)
			if err != nil {
				return nil, err
			}
			s = e.toStr(v)
		}
		return float64(len([]rune(s))), nil
	case "normalize-space":
		var s string
		if len(f.Args) == 0 {
			var err error
			if s, err = e.stringValue(c.key); err != nil {
				return nil, err
			}
		} else {
			v, err := arg(0)
			if err != nil {
				return nil, err
			}
			s = e.toStr(v)
		}
		return strings.Join(strings.Fields(s), " "), nil
	case "name", "local-name":
		k := c.key
		if len(f.Args) == 1 {
			v, err := arg(0)
			if err != nil {
				return nil, err
			}
			ns, ok := v.([]flex.Key)
			if !ok || len(ns) == 0 {
				return "", nil
			}
			k = ns[0]
		}
		n, ok, err := e.view.Node(e.doc, k)
		if err != nil || !ok {
			return "", err
		}
		return n.Name, nil
	case "sum":
		if err := need(1); err != nil {
			return nil, err
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		ns, ok := v.([]flex.Key)
		if !ok {
			return nil, fmt.Errorf("exec: sum() needs a node set")
		}
		total := 0.0
		for _, k := range ns {
			sv, err := e.stringValue(k)
			if err != nil {
				return nil, err
			}
			total += toNumber(sv)
		}
		return total, nil
	case "floor", "ceiling", "round":
		if err := need(1); err != nil {
			return nil, err
		}
		v, err := arg(0)
		if err != nil {
			return nil, err
		}
		n := e.toNum(v)
		switch f.Name {
		case "floor":
			return math.Floor(n), nil
		case "ceiling":
			return math.Ceil(n), nil
		default:
			return round(n), nil
		}
	default:
		return nil, fmt.Errorf("exec: unknown function %s()", f.Name)
	}
}

// round is XPath 1.0's round() (§4.4): the closest integer, halves going
// towards positive infinity. NaN, the infinities and both zeros pass
// through, and a negative value that rounds to zero gives −0.
func round(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
		return x
	}
	r := math.Floor(x)
	if x-r >= 0.5 {
		r++
	}
	if r == 0 && x < 0 {
		return math.Copysign(0, -1)
	}
	return r
}

// stringValue returns the XPath string-value of the node at k.
func (e *env) stringValue(k flex.Key) (string, error) {
	return e.view.StringValue(e.doc, k)
}

// Coercions (XPath 1.0 §4).

func (e *env) boolOf(v value) bool { return toBool(v) }

func toBool(v value) bool {
	switch t := v.(type) {
	case bool:
		return t
	case float64:
		return t != 0 && !math.IsNaN(t)
	case string:
		return len(t) > 0
	case []flex.Key:
		return len(t) > 0
	default:
		return false
	}
}

func (e *env) toNum(v value) float64 {
	switch t := v.(type) {
	case float64:
		return t
	case bool:
		if t {
			return 1
		}
		return 0
	case string:
		return toNumber(t)
	case []flex.Key:
		return toNumber(e.toStr(v))
	default:
		return math.NaN()
	}
}

func (e *env) toStr(v value) string {
	switch t := v.(type) {
	case string:
		return t
	case bool:
		if t {
			return "true"
		}
		return "false"
	case float64:
		return formatNumber(t)
	case []flex.Key:
		if len(t) == 0 {
			return ""
		}
		// String value of the first node in document order.
		first := t[0]
		for _, k := range t[1:] {
			if k < first {
				first = k
			}
		}
		sv, err := e.stringValue(first)
		if err != nil {
			return ""
		}
		return sv
	default:
		return ""
	}
}

func toNumber(s string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

func formatNumber(f float64) string {
	if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
