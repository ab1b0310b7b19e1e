package mass

import (
	"encoding/xml"
	"fmt"
	"io"

	"vamana/internal/flex"
	"vamana/internal/xmldoc"
)

// SerializeSubtree writes the XML serialization of the node at key (and
// its subtree) to w. Element/attribute structure, text, comments and
// processing instructions round-trip; namespace declarations are emitted
// as xmlns attributes. Serializing the document node emits the whole
// document.
func (v *View) SerializeSubtree(d DocID, key flex.Key, w io.Writer) error {
	ser := &serializer{v: v, d: d, w: w}
	defer v.Add(&ser.t)
	root, ok, err := nodeAt(v.clustered, &ser.t, d, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoNode, key)
	}
	ser.node(root)
	return ser.err
}

type serializer struct {
	v   *View
	t   Tally
	d   DocID
	w   io.Writer
	err error
}

func (z *serializer) printf(format string, args ...any) {
	if z.err != nil {
		return
	}
	_, z.err = fmt.Fprintf(z.w, format, args...)
}

func (z *serializer) node(n xmldoc.Node) {
	if z.err != nil {
		return
	}
	switch n.Kind {
	case xmldoc.KindDocument:
		z.children(n.Key)
	case xmldoc.KindElement:
		z.printf("<%s", n.Name)
		// Attributes and namespace declarations are the leading children
		// in key order.
		content := z.openTagAttrs(n.Key)
		if !content {
			z.printf("/>")
			return
		}
		z.printf(">")
		z.children(n.Key)
		z.printf("</%s>", n.Name)
	case xmldoc.KindText:
		z.escaped(n.Value)
	case xmldoc.KindComment:
		z.printf("<!--%s-->", n.Value)
	case xmldoc.KindPI:
		z.printf("<?%s %s?>", n.Name, n.Value)
	case xmldoc.KindAttribute:
		// A bare attribute serializes as name="value".
		z.printf("%s=%q", n.Name, n.Value)
	}
}

// openTagAttrs emits the element's attributes and reports whether any
// non-attribute content follows.
func (z *serializer) openTagAttrs(key flex.Key) bool {
	content := false
	z.eachChild(key, func(c xmldoc.Node) bool {
		switch c.Kind {
		case xmldoc.KindAttribute:
			z.printf(" %s=%q", c.Name, c.Value)
		case xmldoc.KindNamespace:
			if c.Name == "" {
				z.printf(" xmlns=%q", c.Value)
			} else {
				z.printf(" xmlns:%s=%q", c.Name, c.Value)
			}
		default:
			content = true
			return false
		}
		return true
	})
	return content
}

// children serializes all non-attribute children of key.
func (z *serializer) children(key flex.Key) {
	z.eachChild(key, func(c xmldoc.Node) bool {
		if c.Kind != xmldoc.KindAttribute && c.Kind != xmldoc.KindNamespace {
			z.node(c)
		}
		return z.err == nil
	})
}

// eachChild visits the direct children of key in document order,
// skip-scanning so grandchildren are never touched here.
func (z *serializer) eachChild(key flex.Key, visit func(xmldoc.Node) bool) {
	if z.err != nil {
		return
	}
	c := cursorOn(z.v.clustered)
	defer z.t.fold(&c)
	hi := clusteredKey(z.d, key.SubtreeUpper())
	seek := clusteredKey(z.d, key.DescLower())
	for {
		if !c.Seek(seek) || !c.InRange(hi) {
			if err := c.Err(); err != nil && z.err == nil {
				z.err = err
			}
			return
		}
		_, fk := splitClusteredKey(c.Key())
		v, err := c.Value()
		if err != nil {
			z.err = err
			return
		}
		n, err := decodeRecord(v)
		if err != nil {
			z.err = err
			return
		}
		n.Key = fk
		if !visit(n) {
			return
		}
		seek = clusteredKey(z.d, fk.SubtreeUpper())
	}
}

func (z *serializer) escaped(s string) {
	if z.err != nil {
		return
	}
	z.err = xml.EscapeText(z.w, []byte(s))
}
