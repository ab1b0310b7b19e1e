package xpath

import (
	"fmt"
	"strconv"
	"strings"

	"vamana/internal/mass"
)

// Expr is an XPath expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// LocationPath is a sequence of location steps, optionally absolute
// (anchored at the document root).
type LocationPath struct {
	Absolute bool
	Steps    []*Step
}

// Step is one location step: axis :: node-test [predicates...].
type Step struct {
	Axis       mass.Axis
	Test       mass.NodeTest
	Predicates []Expr
}

// BinaryOp enumerates binary operators.
type BinaryOp uint8

const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNeq
	OpLt
	OpLte
	OpGt
	OpGte
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpUnion
)

var binaryOpNames = [...]string{
	OpOr: "or", OpAnd: "and", OpEq: "=", OpNeq: "!=",
	OpLt: "<", OpLte: "<=", OpGt: ">", OpGte: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "div", OpMod: "mod",
	OpUnion: "|",
}

// String returns the XPath spelling of the operator.
func (op BinaryOp) String() string {
	if int(op) < len(binaryOpNames) {
		return binaryOpNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Binary is a binary expression.
type Binary struct {
	Op          BinaryOp
	Left, Right Expr
}

// Unary is unary minus.
type Unary struct {
	Operand Expr
}

// Literal is a quoted string literal.
type Literal struct {
	Value string
}

// Number is a numeric literal.
type Number struct {
	Value float64
}

// FuncCall is a core-library function call.
type FuncCall struct {
	Name string
	Args []Expr
}

// VarRef is a variable reference ($name); variables are bound by the
// execution context (used for XQuery-style context feeding, paper §V-A).
type VarRef struct {
	Name string
}

// Filter is a primary expression with predicates and an optional trailing
// relative path, e.g. (…)[2]/child::x .
type Filter struct {
	Primary    Expr
	Predicates []Expr
	Path       *LocationPath // nil when there is no trailing path
}

func (*LocationPath) exprNode() {}
func (*Binary) exprNode()       {}
func (*Unary) exprNode()        {}
func (*Literal) exprNode()      {}
func (*Number) exprNode()       {}
func (*FuncCall) exprNode()     {}
func (*VarRef) exprNode()       {}
func (*Filter) exprNode()       {}

// String renders the path in unabbreviated XPath syntax.
func (p *LocationPath) String() string {
	var b strings.Builder
	if p.Absolute {
		b.WriteByte('/')
	}
	for i, s := range p.Steps {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// String renders the step in unabbreviated syntax.
func (s *Step) String() string {
	var b strings.Builder
	if s.Axis == mass.AxisValue || s.Axis == mass.AxisAttrValue {
		fmt.Fprintf(&b, "%s::%s", s.Axis, strconv.Quote(s.Test.Name))
	} else {
		fmt.Fprintf(&b, "%s::%s", s.Axis, s.Test)
	}
	for _, p := range s.Predicates {
		fmt.Fprintf(&b, "[%s]", p)
	}
	return b.String()
}

func (e *Binary) String() string {
	return fmt.Sprintf("%s %s %s", e.Left, e.Op, e.Right)
}

func (e *Unary) String() string { return fmt.Sprintf("-%s", e.Operand) }

// String renders the literal in XPath 1.0 syntax, which has no escape
// sequences: the value is wrapped in whichever quote kind it does not
// contain. A parsed literal can hold at most one quote kind, so one of
// the two delimiters is always available.
func (e *Literal) String() string {
	if strings.ContainsRune(e.Value, '\'') {
		return `"` + e.Value + `"`
	}
	return "'" + e.Value + "'"
}

// String renders the number without an exponent — the XPath 1.0 Number
// production is digits-and-dot only, so 'g' formatting (1e+08) would not
// reparse. Parsed numbers are always finite and non-negative, which 'f'
// renders lexably for any magnitude.
func (e *Number) String() string {
	return strconv.FormatFloat(e.Value, 'f', -1, 64)
}

func (e *FuncCall) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
}

func (e *VarRef) String() string { return "$" + e.Name }

func (e *Filter) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s)", e.Primary)
	for _, p := range e.Predicates {
		fmt.Fprintf(&b, "[%s]", p)
	}
	if e.Path != nil {
		b.WriteByte('/')
		b.WriteString(e.Path.String())
	}
	return b.String()
}
