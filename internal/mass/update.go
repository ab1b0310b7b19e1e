package mass

import (
	"errors"
	"fmt"

	"vamana/internal/flex"
	"vamana/internal/xmldoc"
)

// Document update support. The paper's cost model works because MASS
// statistics are "always up to date and accurate ... not affected by
// updates, inserts and deletes" (§I): every mutation below maintains all
// secondary indexes and the counted B+-trees in the same transaction, so
// the first COUNT/TC probe on the view it publishes reflects it exactly.
// The mutators are reachable only through an Update transaction
// (txn.go). FLEX keys make sibling insertion renumbering-free: a fresh
// component is generated strictly between the neighbors' components
// (flex.Between).

// ErrNoNode is returned when an update references a missing node.
var ErrNoNode = errors.New("mass: no such node")

// ErrBadTarget is returned when an update targets a node of an
// incompatible kind.
var ErrBadTarget = errors.New("mass: node kind incompatible with this update")

// insertContent inserts node n as a content child of parent at position
// pos (0-based among existing content children; pos < 0 or past the end
// appends) and returns its key. Like every mutator below it runs inside
// an Update transaction, which holds the writer lock for its whole span.
func (s *Store) insertContent(d DocID, parent flex.Key, pos int, n xmldoc.Node) (flex.Key, error) {
	defer s.bumpEpochLocked(d)
	pn, ok, err := nodeAt(s.clustered, &s.wt, d, parent)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("%w: parent %q", ErrNoNode, parent)
	}
	if pn.Kind != xmldoc.KindElement && pn.Kind != xmldoc.KindDocument {
		return "", fmt.Errorf("%w: parent %q is a %s", ErrBadTarget, parent, pn.Kind)
	}
	comp, err := s.componentForInsert(d, parent, pos)
	if err != nil {
		return "", err
	}
	n.Key = parent.Child(comp)
	if err := s.indexNode(d, n); err != nil {
		return "", err
	}
	return n.Key, nil
}

// componentForInsert picks a FLEX component for a new content child of
// parent at position pos, strictly between its neighbors-to-be. The
// attribute prefix (attributes sort before all content) acts as the lower
// floor for insertions at the head.
func (s *Store) componentForInsert(d DocID, parent flex.Key, pos int) (flex.Component, error) {
	attrs, contents, err := s.childComponents(d, parent)
	if err != nil {
		return "", err
	}
	floor := flex.Component("")
	if len(attrs) > 0 {
		floor = attrs[len(attrs)-1]
	}
	switch {
	case len(contents) == 0:
		if floor != "" {
			return flex.After(floor), nil
		}
		return flex.Ordinal(0), nil
	case pos < 0 || pos >= len(contents):
		return flex.After(contents[len(contents)-1]), nil
	case pos == 0:
		return flex.Between(floor, contents[0])
	default:
		return flex.Between(contents[pos-1], contents[pos])
	}
}

// childComponents returns parent's attribute/namespace components and its
// content-child components, each in document order. It walks the
// clustered index skipping over each child's subtree.
func (s *Store) childComponents(d DocID, parent flex.Key) (attrs, contents []flex.Component, err error) {
	c := s.clustered.NewCursor()
	hi := clusteredKey(d, parent.SubtreeUpper())
	seek := clusteredKey(d, parent.DescLower())
	for {
		if !c.Seek(seek) || !c.InRange(hi) {
			return attrs, contents, c.Err()
		}
		_, fk := splitClusteredKey(c.Key())
		v, err := c.Value()
		if err != nil {
			return nil, nil, err
		}
		n, err := decodeRecord(v)
		if err != nil {
			return nil, nil, err
		}
		comp := fk.LastComponent()
		if n.Kind == xmldoc.KindAttribute || n.Kind == xmldoc.KindNamespace {
			attrs = append(attrs, comp)
		} else {
			contents = append(contents, comp)
		}
		seek = clusteredKey(d, fk.SubtreeUpper())
	}
}

// insertAttribute adds an attribute to an element. The new attribute is
// placed after any existing attributes and before all content children,
// preserving document-order invariants.
func (s *Store) insertAttribute(d DocID, owner flex.Key, name, value string) (flex.Key, error) {
	defer s.bumpEpochLocked(d)
	on, ok, err := nodeAt(s.clustered, &s.wt, d, owner)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("%w: element %q", ErrNoNode, owner)
	}
	if on.Kind != xmldoc.KindElement {
		return "", fmt.Errorf("%w: %q is a %s", ErrBadTarget, owner, on.Kind)
	}
	attrs, contents, err := s.childComponents(d, owner)
	if err != nil {
		return "", err
	}
	var comp flex.Component
	floor := flex.Component("")
	if len(attrs) > 0 {
		floor = attrs[len(attrs)-1]
	}
	if len(contents) > 0 {
		if comp, err = flex.Between(floor, contents[0]); err != nil {
			return "", err
		}
	} else if floor != "" {
		comp = flex.After(floor)
	} else {
		comp = flex.AttrOrdinal(0)
	}
	n := xmldoc.Node{Key: owner.Child(comp), Kind: xmldoc.KindAttribute, Name: name, Value: value}
	if err := s.indexNode(d, n); err != nil {
		return "", err
	}
	return n.Key, nil
}

// updateText replaces the value of a text or attribute node, keeping the
// value index (and therefore TC statistics) exact.
func (s *Store) updateText(d DocID, key flex.Key, newValue string) error {
	defer s.bumpEpochLocked(d)
	n, ok, err := nodeAt(s.clustered, &s.wt, d, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoNode, key)
	}
	var tag byte
	switch n.Kind {
	case xmldoc.KindText:
		tag = valueTagText
	case xmldoc.KindAttribute:
		tag = valueTagAttr
	case xmldoc.KindComment, xmldoc.KindPI:
		// Not value-indexed; only the record changes.
		n.Value = newValue
		_, err := s.clustered.Put(clusteredKey(d, key), encodeRecord(n))
		return err
	default:
		return fmt.Errorf("%w: %q is a %s", ErrBadTarget, key, n.Kind)
	}
	if _, err := s.values.Delete(valueKey(tag, n.Value, d, key)); err != nil {
		return err
	}
	s.deleteNumericEntries(n.Kind, d, key, n.Value)
	n.Value = newValue
	if err := s.putValueEntry(tag, d, key, newValue); err != nil {
		return err
	}
	_, err = s.clustered.Put(clusteredKey(d, key), encodeRecord(n))
	return err
}

// renameElement changes an element's name, maintaining the name index.
func (s *Store) renameElement(d DocID, key flex.Key, newName string) error {
	defer s.bumpEpochLocked(d)
	n, ok, err := nodeAt(s.clustered, &s.wt, d, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoNode, key)
	}
	if n.Kind != xmldoc.KindElement {
		return fmt.Errorf("%w: %q is a %s", ErrBadTarget, key, n.Kind)
	}
	if len(newName) > maxIndexedValue {
		return fmt.Errorf("mass: name exceeds %d bytes", maxIndexedValue)
	}
	if _, err := s.names.Delete(nameKey(n.Name, d, key)); err != nil {
		return err
	}
	if _, err := s.names.Put(nameKey(newName, d, key), nil); err != nil {
		return err
	}
	if _, err := s.elems.Put(docKey(d, key), []byte(newName)); err != nil {
		return err
	}
	n.Name = newName
	_, err = s.clustered.Put(clusteredKey(d, key), encodeRecord(n))
	return err
}

// deleteSubtree removes the node at key together with its whole subtree
// (descendants, attributes, text), cleaning every index. Deleting the
// document node is rejected; use DropDocument.
func (s *Store) deleteSubtree(d DocID, key flex.Key) error {
	defer s.bumpEpochLocked(d)
	if key == flex.Root {
		return fmt.Errorf("%w: cannot delete the document node", ErrBadTarget)
	}
	n, ok, err := nodeAt(s.clustered, &s.wt, d, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoNode, key)
	}
	_ = n
	// Collect first: cursors do not survive mutation.
	type victim struct {
		key  flex.Key
		node xmldoc.Node
	}
	var victims []victim
	c := s.clustered.NewCursor()
	lo := clusteredKey(d, key)
	hi := clusteredKey(d, key.SubtreeUpper())
	for ok := c.Seek(lo); ok && c.InRange(hi); ok = c.Next() {
		_, fk := splitClusteredKey(c.Key())
		v, err := c.Value()
		if err != nil {
			return err
		}
		rec, err := decodeRecord(v)
		if err != nil {
			return err
		}
		rec.Key = fk
		victims = append(victims, victim{fk, rec})
	}
	if err := c.Err(); err != nil {
		return err
	}
	for _, v := range victims {
		s.deleteNodeIndexEntries(d, v.node)
		if _, err := s.clustered.Delete(clusteredKey(d, v.key)); err != nil {
			return err
		}
	}
	return nil
}
