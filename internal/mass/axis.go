package mass

import (
	"fmt"

	"vamana/internal/xmldoc"
)

// Axis identifies one of the 13 XPath axes, plus VAMANA's value:: pseudo
// axis introduced by the optimizer's value-index rewrite (paper §VI-C.2).
type Axis uint8

const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowing
	AxisFollowingSibling
	AxisPreceding
	AxisPrecedingSibling
	AxisSelf
	AxisAttribute
	AxisNamespace
	// AxisValue is VAMANA's internal pseudo axis: "value::'literal'" scans
	// the value index for nodes whose string value equals the literal,
	// within the context subtree. It is how value-based queries are
	// "translated into a location step" (paper §VI-C.2).
	AxisValue
	// AxisAttrValue is the attribute-flavored value pseudo axis: it scans
	// the value index for attribute nodes whose value equals the literal
	// (NodeTest.Name), optionally restricted to one attribute name
	// (NodeTest.Attr). An extension beyond the paper's text() rewrite,
	// enabled by the same one-probe value index.
	AxisAttrValue
	// AxisNumRange is the numeric-range pseudo axis: it scans the numeric
	// value index for text nodes whose number() lies in a range. The range
	// bounds live on the plan step (plan.Step.Num*), not in the node test,
	// so the execution engine binds this axis with Store.BindNumRange
	// rather than BindScan.
	AxisNumRange
)

// AxisCount is the number of axes (real and pseudo), for sizing per-axis
// counter arrays in instrumentation code.
const AxisCount = int(AxisNumRange) + 1

var axisNames = [...]string{
	AxisChild:            "child",
	AxisDescendant:       "descendant",
	AxisDescendantOrSelf: "descendant-or-self",
	AxisParent:           "parent",
	AxisAncestor:         "ancestor",
	AxisAncestorOrSelf:   "ancestor-or-self",
	AxisFollowing:        "following",
	AxisFollowingSibling: "following-sibling",
	AxisPreceding:        "preceding",
	AxisPrecedingSibling: "preceding-sibling",
	AxisSelf:             "self",
	AxisAttribute:        "attribute",
	AxisNamespace:        "namespace",
	AxisValue:            "value",
	AxisAttrValue:        "attr-value",
	AxisNumRange:         "num-range",
}

// String returns the XPath spelling of the axis.
func (a Axis) String() string {
	if int(a) < len(axisNames) {
		return axisNames[a]
	}
	return fmt.Sprintf("axis(%d)", uint8(a))
}

// ParseAxis resolves an XPath axis name.
func ParseAxis(s string) (Axis, bool) {
	for a, n := range axisNames {
		if n == s {
			return Axis(a), true
		}
	}
	return 0, false
}

// Reverse reports whether the axis is a reverse axis (nodes are delivered
// in reverse document order, per XPath 1.0 §2.4).
func (a Axis) Reverse() bool {
	switch a {
	case AxisAncestor, AxisAncestorOrSelf, AxisPreceding, AxisPrecedingSibling, AxisParent:
		return true
	}
	return false
}

// Principal returns the axis's principal node kind (XPath 1.0 §2.3): a
// name or wildcard test selects nodes of this kind.
func (a Axis) Principal() xmldoc.Kind {
	switch a {
	case AxisAttribute, AxisAttrValue:
		return xmldoc.KindAttribute
	case AxisNamespace:
		return xmldoc.KindNamespace
	default:
		return xmldoc.KindElement
	}
}

// TestType classifies an XPath node test.
type TestType uint8

const (
	// TestName matches principal-kind nodes with a specific name.
	TestName TestType = iota
	// TestWildcard ("*") matches every principal-kind node.
	TestWildcard
	// TestText ("text()") matches text nodes.
	TestText
	// TestNode ("node()") matches every node on the axis.
	TestNode
	// TestComment ("comment()") matches comment nodes.
	TestComment
	// TestPI ("processing-instruction()") matches PI nodes, optionally
	// with a specific target name.
	TestPI
)

// NodeTest is the node-test part of a location step.
type NodeTest struct {
	Type TestType
	Name string // for TestName and optionally TestPI; the literal for value axes
	// Attr restricts the attr-value pseudo axis to attributes with this
	// name; empty matches any attribute name.
	Attr string
}

// String returns the XPath spelling of the node test.
func (t NodeTest) String() string {
	switch t.Type {
	case TestName:
		return t.Name
	case TestWildcard:
		return "*"
	case TestText:
		return "text()"
	case TestNode:
		return "node()"
	case TestComment:
		return "comment()"
	case TestPI:
		if t.Name != "" {
			return fmt.Sprintf("processing-instruction(%q)", t.Name)
		}
		return "processing-instruction()"
	default:
		return fmt.Sprintf("test(%d)", uint8(t.Type))
	}
}

// Matches reports whether node n satisfies the test on an axis whose
// principal node kind is principal.
func (t NodeTest) Matches(n xmldoc.Node, principal xmldoc.Kind) bool {
	return t.matchesKind(n.Kind, principal) && (!t.named() || n.Name == t.Name)
}

// matchesRecord is Matches on a record parsed in place.
func (t NodeTest) matchesRecord(r record, principal xmldoc.Kind) bool {
	return t.matchesKind(r.kind, principal) && (!t.named() || string(r.name) == t.Name)
}

// named reports whether the test compares the node's name as well as its
// kind.
func (t NodeTest) named() bool {
	return t.Type == TestName || t.Type == TestPI && t.Name != ""
}

// matchesKind is the kind half of Matches.
func (t NodeTest) matchesKind(kind, principal xmldoc.Kind) bool {
	switch t.Type {
	case TestName, TestWildcard:
		return kind == principal
	case TestText:
		return kind == xmldoc.KindText
	case TestComment:
		return kind == xmldoc.KindComment
	case TestPI:
		return kind == xmldoc.KindPI
	case TestNode:
		// node() matches everything reachable on the axis. Attribute and
		// namespace nodes are reachable only on their own axes, which is
		// enforced by the axis scans, not here.
		return true
	default:
		return false
	}
}
