package xpath

import (
	"fmt"
	"strconv"

	"vamana/internal/mass"
)

// Parse compiles an XPath 1.0 expression into its AST.
func Parse(expr string) (Expr, error) {
	toks, err := lex(expr)
	if err != nil {
		return nil, err
	}
	p := &parser{expr: expr, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %s", p.peek().kind)
	}
	return e, nil
}

type parser struct {
	expr string
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token { // one token of lookahead past peek
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) accept(k tokenKind) bool {
	if p.peek().kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.peek().kind != k {
		return token{}, p.errorf("expected %s, found %s", k, p.peek().kind)
	}
	return p.next(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Expr: p.expr, Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
}

// parseExpr parses a full expression (OrExpr).
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent && p.peek().text == "or" {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent && p.peek().text == "and" {
		p.next()
		right, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseEquality() (Expr, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch p.peek().kind {
		case tokEq:
			op = OpEq
		case tokNeq:
			op = OpNeq
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseRelational() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch p.peek().kind {
		case tokLt:
			op = OpLt
		case tokLte:
			op = OpLte
		case tokGt:
			op = OpGt
		case tokGte:
			op = OpGte
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch p.peek().kind {
		case tokPlus:
			op = OpAdd
		case tokMinus:
			op = OpSub
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.peek().kind == tokStar:
			op = OpMul
		case p.peek().kind == tokIdent && p.peek().text == "div":
			op = OpDiv
		case p.peek().kind == tokIdent && p.peek().text == "mod":
			op = OpMod
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokMinus) {
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Operand: operand}, nil
	}
	return p.parseUnion()
}

func (p *parser) parseUnion() (Expr, error) {
	left, err := p.parsePathExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPipe) {
		right, err := p.parsePathExpr()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: OpUnion, Left: left, Right: right}
	}
	return left, nil
}

// parsePathExpr parses a PathExpr: either a location path, or a filter
// expression optionally followed by '/' RelativeLocationPath.
func (p *parser) parsePathExpr() (Expr, error) {
	if p.startsFilter() {
		prim, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		f := &Filter{Primary: prim}
		for p.peek().kind == tokLBracket {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			f.Predicates = append(f.Predicates, pred)
		}
		if p.peek().kind == tokSlash || p.peek().kind == tokSlash2 {
			dslash := p.next().kind == tokSlash2
			path := &LocationPath{}
			if dslash {
				path.Steps = append(path.Steps, descOrSelfStep())
			}
			if err := p.parseRelativePath(path); err != nil {
				return nil, err
			}
			f.Path = path
		}
		if len(f.Predicates) == 0 && f.Path == nil {
			return prim, nil
		}
		return f, nil
	}
	return p.parseLocationPath()
}

// startsFilter reports whether the upcoming tokens begin a filter/primary
// expression rather than a location path. A lone identifier followed by
// '(' is a function call — except the node-test spellings.
func (p *parser) startsFilter() bool {
	switch p.peek().kind {
	case tokLiteral, tokNumber, tokDollar:
		return true
	case tokLParen:
		return true
	case tokIdent:
		if p.peek2().kind != tokLParen {
			return false
		}
		switch p.peek().text {
		case "node", "text", "comment", "processing-instruction":
			return false // node tests, not functions
		}
		return true
	}
	return false
}

func (p *parser) parsePrimary() (Expr, error) {
	switch t := p.peek(); t.kind {
	case tokLiteral:
		p.next()
		return &Literal{Value: t.text}, nil
	case tokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &Number{Value: v}, nil
	case tokDollar:
		p.next()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		return &VarRef{Name: name.text}, nil
	case tokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		name := p.next().text
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		call := &FuncCall{Name: name}
		if p.peek().kind != tokRParen {
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if !p.accept(tokComma) {
					break
				}
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return call, nil
	default:
		return nil, p.errorf("expected expression, found %s", t.kind)
	}
}

func descOrSelfStep() *Step {
	return &Step{Axis: mass.AxisDescendantOrSelf, Test: mass.NodeTest{Type: mass.TestNode}}
}

func (p *parser) parseLocationPath() (Expr, error) {
	path := &LocationPath{}
	switch p.peek().kind {
	case tokSlash:
		p.next()
		path.Absolute = true
		if !p.startsStep() {
			return path, nil // bare "/" selects the document root
		}
	case tokSlash2:
		p.next()
		path.Absolute = true
		path.Steps = append(path.Steps, descOrSelfStep())
	}
	if err := p.parseRelativePath(path); err != nil {
		return nil, err
	}
	return path, nil
}

func (p *parser) startsStep() bool {
	switch p.peek().kind {
	case tokIdent, tokStar, tokAt, tokDot, tokDotDot:
		return true
	}
	return false
}

func (p *parser) parseRelativePath(path *LocationPath) error {
	for {
		step, err := p.parseStep()
		if err != nil {
			return err
		}
		path.Steps = append(path.Steps, step)
		switch p.peek().kind {
		case tokSlash:
			p.next()
		case tokSlash2:
			p.next()
			path.Steps = append(path.Steps, descOrSelfStep())
		default:
			return nil
		}
	}
}

func (p *parser) parseStep() (*Step, error) {
	step := &Step{Axis: mass.AxisChild}
	switch p.peek().kind {
	case tokDot:
		p.next()
		step.Axis = mass.AxisSelf
		step.Test = mass.NodeTest{Type: mass.TestNode}
		return p.parsePredicates(step)
	case tokDotDot:
		p.next()
		step.Axis = mass.AxisParent
		step.Test = mass.NodeTest{Type: mass.TestNode}
		return p.parsePredicates(step)
	case tokAt:
		p.next()
		step.Axis = mass.AxisAttribute
	case tokIdent:
		// Axis specifier?
		if p.peek2().kind == tokAxis {
			axis, ok := mass.ParseAxis(p.peek().text)
			if !ok || axis == mass.AxisValue || axis == mass.AxisAttrValue || axis == mass.AxisNumRange {
				return nil, p.errorf("unknown axis %q", p.peek().text)
			}
			p.next()
			p.next() // '::'
			step.Axis = axis
		}
	}
	test, err := p.parseNodeTest(step.Axis)
	if err != nil {
		return nil, err
	}
	step.Test = test
	return p.parsePredicates(step)
}

func (p *parser) parseNodeTest(axis mass.Axis) (mass.NodeTest, error) {
	switch t := p.peek(); t.kind {
	case tokStar:
		p.next()
		return mass.NodeTest{Type: mass.TestWildcard}, nil
	case tokIdent:
		name := p.next().text
		if p.peek().kind == tokLParen {
			p.next()
			var nt mass.NodeTest
			switch name {
			case "text":
				nt = mass.NodeTest{Type: mass.TestText}
			case "node":
				nt = mass.NodeTest{Type: mass.TestNode}
			case "comment":
				nt = mass.NodeTest{Type: mass.TestComment}
			case "processing-instruction":
				nt = mass.NodeTest{Type: mass.TestPI}
				if p.peek().kind == tokLiteral {
					nt.Name = p.next().text
				}
			default:
				return mass.NodeTest{}, p.errorf("unknown node type %q", name)
			}
			if _, err := p.expect(tokRParen); err != nil {
				return mass.NodeTest{}, err
			}
			return nt, nil
		}
		return mass.NodeTest{Type: mass.TestName, Name: name}, nil
	default:
		return mass.NodeTest{}, p.errorf("expected node test, found %s", t.kind)
	}
}

func (p *parser) parsePredicates(step *Step) (*Step, error) {
	for p.peek().kind == tokLBracket {
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		step.Predicates = append(step.Predicates, pred)
	}
	return step, nil
}

func (p *parser) parsePredicate() (Expr, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	return e, nil
}
