// Package dom implements a DOM-based XPath engine in the style of Jaxen
// and Galax as characterized by the paper (§II): the entire document is
// materialized in main memory and queries are evaluated by conventional
// top-down tree traversal with fully materialized intermediate node sets.
//
// It exists for two reasons: it is one of the comparison engines of the
// experimental study (§VIII), and — because it is simple enough to audit —
// it serves as the differential-testing oracle for the VAMANA engine.
package dom

import (
	"fmt"
	"io"
	"sort"

	"vamana/internal/flex"
	"vamana/internal/mass"
	"vamana/internal/xmldoc"
	"vamana/internal/xpath"
)

// Node is a DOM node with full parent/child links.
type Node struct {
	Kind     xmldoc.Kind
	Name     string
	Value    string
	Key      flex.Key // retained so results can be compared across engines
	Parent   *Node
	Children []*Node // child content (elements, text, comments, PIs)
	Attrs    []*Node // attribute and namespace nodes
	Pos      int     // document-order index
}

// Document is a fully materialized XML document.
type Document struct {
	Root  *Node // the document node
	Nodes []*Node
}

// Parse builds the DOM from r. This is the step whose memory footprint
// bounds DOM engines ("the maximum document size is bounded by the amount
// of physical main memory", §I).
func Parse(r io.Reader) (*Document, error) {
	b := &builder{d: &Document{}}
	if err := xmldoc.Parse(r, b.add); err != nil {
		return nil, err
	}
	return b.d, nil
}

// Build builds the DOM from a document's nodes in document order, as
// xmldoc.Parse emits them — or as a test keeps them while it applies
// updates to a model of a stored document.
func Build(nodes []xmldoc.Node) (*Document, error) {
	b := &builder{d: &Document{}}
	for _, n := range nodes {
		if err := b.add(n); err != nil {
			return nil, err
		}
	}
	return b.d, nil
}

// builder links nodes arriving in document order into a Document.
type builder struct {
	d     *Document
	stack []*Node
}

func (b *builder) add(n xmldoc.Node) error {
	d := b.d
	node := &Node{Kind: n.Kind, Name: n.Name, Value: n.Value, Key: n.Key, Pos: len(d.Nodes)}
	d.Nodes = append(d.Nodes, node)
	if n.Kind == xmldoc.KindDocument {
		d.Root = node
		b.stack = append(b.stack[:0], node)
		return nil
	}
	// Pop to the node's parent (keys encode ancestry).
	for len(b.stack) > 0 && b.stack[len(b.stack)-1].Key != n.Key.Parent() {
		b.stack = b.stack[:len(b.stack)-1]
	}
	if len(b.stack) == 0 {
		return fmt.Errorf("dom: orphan node %q", n.Key)
	}
	parent := b.stack[len(b.stack)-1]
	node.Parent = parent
	switch n.Kind {
	case xmldoc.KindAttribute, xmldoc.KindNamespace:
		parent.Attrs = append(parent.Attrs, node)
	default:
		parent.Children = append(parent.Children, node)
		if n.Kind == xmldoc.KindElement {
			b.stack = append(b.stack, node)
		}
	}
	return nil
}

// StringValue computes the XPath string-value of n.
func (n *Node) StringValue() string {
	switch n.Kind {
	case xmldoc.KindElement, xmldoc.KindDocument:
		var out []byte
		var walk func(*Node)
		walk = func(m *Node) {
			if m.Kind == xmldoc.KindText {
				out = append(out, m.Value...)
			}
			for _, c := range m.Children {
				walk(c)
			}
		}
		walk(n)
		return string(out)
	default:
		return n.Value
	}
}

// Options tunes the engine to model a specific published system's
// behavior. The zero value is the full Jaxen-style engine.
type Options struct {
	// UnsupportedAxes lists axes the engine rejects, modelling Galax's
	// axis gaps the paper reports ("Galax does not support certain axes
	// like following-sibling", §VIII).
	UnsupportedAxes []mass.Axis
	// SortEveryStep re-sorts and deduplicates the node set after every
	// location step (Galax's set semantics), adding per-step overhead.
	SortEveryStep bool
	// MaxDocumentBytes, when > 0, refuses documents larger than this,
	// modelling the published size limits (Jaxen >= 10 MB fails, §II).
	MaxDocumentBytes int
}

// ErrUnsupportedAxis is returned when the engine is configured without an
// axis a query requires.
type ErrUnsupportedAxis struct{ Axis mass.Axis }

func (e *ErrUnsupportedAxis) Error() string {
	return fmt.Sprintf("dom: axis %s is not supported by this engine", e.Axis)
}

// Engine evaluates XPath queries over one Document.
type Engine struct {
	doc  *Document
	opts Options
	bad  map[mass.Axis]bool
}

// New creates an engine over doc.
func New(doc *Document, opts Options) *Engine {
	bad := map[mass.Axis]bool{}
	for _, a := range opts.UnsupportedAxes {
		bad[a] = true
	}
	return &Engine{doc: doc, opts: opts, bad: bad}
}

// Eval parses and evaluates expr with the document root as context,
// returning the resulting node set in document order.
func (e *Engine) Eval(expr string) ([]*Node, error) {
	ast, err := xpath.Parse(expr)
	if err != nil {
		return nil, err
	}
	v, err := e.evalExpr(ast, evalCtx{node: e.doc.Root, pos: 1, last: 1})
	if err != nil {
		return nil, err
	}
	ns, ok := v.(nodeSet)
	if !ok {
		return nil, fmt.Errorf("dom: expression %q is not a node set", expr)
	}
	return e.ordered(ns), nil
}

// EvalPredicate evaluates a predicate expression against one context node
// with explicit proximity position and context size, returning the XPath
// truth value (numeric results compare against the position). The
// path-join baseline uses this as its "switch back to conventional
// memory-based tree traversal" for value predicates (paper §II on eXist).
func (e *Engine) EvalPredicate(expr xpath.Expr, ctx *Node, pos, last int) (bool, error) {
	v, err := e.evalExpr(expr, evalCtx{node: ctx, pos: pos, last: last})
	if err != nil {
		return false, err
	}
	if n, ok := v.(float64); ok {
		return float64(pos) == n, nil
	}
	return e.bool_(v), nil
}

// ordered sorts a node set into document order and removes duplicates.
func (e *Engine) ordered(ns nodeSet) []*Node {
	out := append([]*Node(nil), ns...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	dedup := out[:0]
	var prev *Node
	for _, n := range out {
		if n != prev {
			dedup = append(dedup, n)
		}
		prev = n
	}
	return dedup
}

// axisNodes materializes the axis node list from ctx, in axis order. This
// is the naive traversal at the heart of the DOM strategy: no indexes,
// just pointer chasing over the whole (sub)tree.
func (e *Engine) axisNodes(ctx *Node, axis mass.Axis) ([]*Node, error) {
	if e.bad[axis] {
		return nil, &ErrUnsupportedAxis{Axis: axis}
	}
	var out []*Node
	switch axis {
	case mass.AxisSelf:
		out = []*Node{ctx}
	case mass.AxisChild:
		out = append(out, ctx.Children...)
	case mass.AxisDescendant, mass.AxisDescendantOrSelf:
		if axis == mass.AxisDescendantOrSelf {
			out = append(out, ctx)
		}
		var walk func(*Node)
		walk = func(n *Node) {
			for _, c := range n.Children {
				out = append(out, c)
				walk(c)
			}
		}
		walk(ctx)
	case mass.AxisParent:
		if ctx.Parent != nil {
			out = []*Node{ctx.Parent}
		}
	case mass.AxisAncestor, mass.AxisAncestorOrSelf:
		if axis == mass.AxisAncestorOrSelf {
			out = append(out, ctx)
		}
		for p := ctx.Parent; p != nil; p = p.Parent {
			out = append(out, p)
		}
	case mass.AxisFollowing:
		// Walk the whole document after ctx, skipping ctx's subtree.
		inSubtree := func(n *Node) bool {
			for p := n; p != nil; p = p.Parent {
				if p == ctx {
					return true
				}
			}
			return false
		}
		for _, n := range e.doc.Nodes {
			if n.Pos > ctx.Pos && n.Kind != xmldoc.KindAttribute && n.Kind != xmldoc.KindNamespace && !inSubtree(n) {
				out = append(out, n)
			}
		}
	case mass.AxisPreceding:
		isAncestor := func(n *Node) bool {
			for p := ctx.Parent; p != nil; p = p.Parent {
				if p == n {
					return true
				}
			}
			return false
		}
		for i := len(e.doc.Nodes) - 1; i >= 0; i-- {
			n := e.doc.Nodes[i]
			if n.Pos < ctx.Pos && n.Kind != xmldoc.KindAttribute && n.Kind != xmldoc.KindNamespace && !isAncestor(n) {
				out = append(out, n)
			}
		}
	case mass.AxisFollowingSibling:
		if ctx.Parent != nil && ctx.Kind != xmldoc.KindAttribute && ctx.Kind != xmldoc.KindNamespace {
			found := false
			for _, s := range ctx.Parent.Children {
				if found {
					out = append(out, s)
				}
				if s == ctx {
					found = true
				}
			}
		}
	case mass.AxisPrecedingSibling:
		if ctx.Parent != nil && ctx.Kind != xmldoc.KindAttribute && ctx.Kind != xmldoc.KindNamespace {
			var before []*Node
			for _, s := range ctx.Parent.Children {
				if s == ctx {
					break
				}
				before = append(before, s)
			}
			for i := len(before) - 1; i >= 0; i-- {
				out = append(out, before[i])
			}
		}
	case mass.AxisAttribute:
		for _, a := range ctx.Attrs {
			if a.Kind == xmldoc.KindAttribute {
				out = append(out, a)
			}
		}
	case mass.AxisNamespace:
		seen := map[string]bool{}
		for n := ctx; n != nil; n = n.Parent {
			for _, a := range n.Attrs {
				if a.Kind == xmldoc.KindNamespace && !seen[a.Name] {
					seen[a.Name] = true
					out = append(out, a)
				}
			}
		}
	default:
		return nil, &ErrUnsupportedAxis{Axis: axis}
	}
	return out, nil
}

func matches(n *Node, test mass.NodeTest, axis mass.Axis) bool {
	return test.Matches(xmldoc.Node{Kind: n.Kind, Name: n.Name, Value: n.Value}, axis.Principal())
}
