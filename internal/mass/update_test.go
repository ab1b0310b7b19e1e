package mass

import (
	"fmt"
	"strings"
	"testing"

	"vamana/internal/flex"
	"vamana/internal/xmldoc"
)

func firstNamed(t *testing.T, s *Store, d DocID, name string) flex.Key {
	t.Helper()
	keys := drainKeys(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: name}))
	if len(keys) == 0 {
		t.Fatalf("no %s element", name)
	}
	return keys[0]
}

func childNames(t *testing.T, s *Store, d DocID, parent flex.Key) []string {
	t.Helper()
	var out []string
	for _, n := range collect(t, s.AxisScan(d, parent, AxisChild, NodeTest{Type: TestNode})) {
		if n.Kind == xmldoc.KindElement {
			out = append(out, n.Name)
		} else {
			out = append(out, "#"+n.Kind.String())
		}
	}
	return out
}

func TestInsertElementPositions(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r><a/><b/><c/></r>`)
	r := firstNamed(t, s, d, "r")

	if err := update(s, func(u *Update) error { _, err := u.InsertElement(d, r, 0, "head"); return err }); err != nil {
		t.Fatal(err)
	}
	if err := update(s, func(u *Update) error { _, err := u.InsertElement(d, r, -1, "tail"); return err }); err != nil {
		t.Fatal(err)
	}
	// Now: head a b c tail; insert between a and b (content position 2).
	if err := update(s, func(u *Update) error { _, err := u.InsertElement(d, r, 2, "mid"); return err }); err != nil {
		t.Fatal(err)
	}
	got := childNames(t, s, d, r)
	want := []string{"head", "a", "mid", "b", "c", "tail"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("children = %v, want %v", got, want)
	}
	// Counts reflect the inserts immediately and exactly.
	for _, name := range []string{"head", "mid", "tail"} {
		if n, _ := s.CountName(d, name); n != 1 {
			t.Errorf("CountName(%s) = %d", name, n)
		}
	}
}

// TestDenseInsertion hammers the same gap to prove FLEX keys never run
// out of room and order stays exact — the no-renumbering property.
func TestDenseInsertion(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r><first/><last/></r>`)
	r := firstNamed(t, s, d, "r")
	for i := 0; i < 150; i++ {
		if err := update(s, func(u *Update) error { _, err := u.InsertElement(d, r, 1, fmt.Sprintf("n%03d", i)); return err }); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	got := childNames(t, s, d, r)
	if len(got) != 152 {
		t.Fatalf("children = %d", len(got))
	}
	if got[0] != "first" || got[len(got)-1] != "last" {
		t.Fatalf("bounds disturbed: %v ... %v", got[0], got[len(got)-1])
	}
	// Each insert landed at content position 1, so the later the insert
	// the earlier it appears: n149, n148, ..., n000.
	for i := 0; i < 150; i++ {
		want := fmt.Sprintf("n%03d", 149-i)
		if got[1+i] != want {
			t.Fatalf("child %d = %s, want %s", 1+i, got[1+i], want)
		}
	}
	// All keys remain valid FLEX keys.
	for _, k := range drainKeys(t, s.AxisScan(d, r, AxisChild, NodeTest{Type: TestWildcard})) {
		if !k.Valid() {
			t.Fatalf("invalid key generated: %q", k)
		}
	}
}

func TestInsertTextAndTC(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r><a>old</a></r>`)
	a := firstNamed(t, s, d, "a")
	if err := update(s, func(u *Update) error { _, err := u.InsertText(d, a, -1, "fresh value"); return err }); err != nil {
		t.Fatal(err)
	}
	if tc, _ := cur(s).TextCount(d, "fresh value", ""); tc != 1 {
		t.Fatalf("TC(fresh value) = %d", tc)
	}
	hits := collect(t, s.AxisScan(d, "", AxisValue, NodeTest{Name: "fresh value"}))
	if len(hits) != 1 {
		t.Fatalf("value scan hits = %d", len(hits))
	}
	sv, _ := cur(s).StringValue(d, a)
	if sv != "oldfresh value" {
		t.Fatalf("string value = %q", sv)
	}
}

func TestUpdateText(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r><a>before</a></r>`)
	hits := collect(t, s.AxisScan(d, "", AxisValue, NodeTest{Name: "before"}))
	if len(hits) != 1 {
		t.Fatal("setup failed")
	}
	if err := update(s, func(u *Update) error { return u.UpdateText(d, hits[0].Key, "after") }); err != nil {
		t.Fatal(err)
	}
	if tc, _ := cur(s).TextCount(d, "before", ""); tc != 0 {
		t.Errorf("TC(before) = %d after update", tc)
	}
	if tc, _ := cur(s).TextCount(d, "after", ""); tc != 1 {
		t.Errorf("TC(after) = %d", tc)
	}
	n, _, _ := s.Node(d, hits[0].Key)
	if n.Value != "after" {
		t.Errorf("record value = %q", n.Value)
	}
}

func TestUpdateAttributeValue(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r a="x"/>`)
	r := firstNamed(t, s, d, "r")
	attrs := collect(t, s.AxisScan(d, r, AxisAttribute, NodeTest{Type: TestWildcard}))
	if len(attrs) != 1 {
		t.Fatal("setup failed")
	}
	if err := update(s, func(u *Update) error { return u.UpdateText(d, attrs[0].Key, "y") }); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, s.AxisScan(d, "", AxisAttrValue, NodeTest{Name: "y"})); len(got) != 1 {
		t.Fatalf("attr value scan after update = %d", len(got))
	}
	if got := collect(t, s.AxisScan(d, "", AxisAttrValue, NodeTest{Name: "x"})); len(got) != 0 {
		t.Fatalf("stale attr value remains: %d", len(got))
	}
}

func TestInsertAttribute(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r id="1"><child/>text</r>`)
	r := firstNamed(t, s, d, "r")
	if err := update(s, func(u *Update) error { _, err := u.InsertAttribute(d, r, "lang", "en"); return err }); err != nil {
		t.Fatal(err)
	}
	attrs := collect(t, s.AxisScan(d, r, AxisAttribute, NodeTest{Type: TestWildcard}))
	if len(attrs) != 2 {
		t.Fatalf("attributes = %d, want 2", len(attrs))
	}
	// Document-order invariant: every attribute key precedes the first
	// content child's key.
	kids := collect(t, s.AxisScan(d, r, AxisChild, NodeTest{Type: TestNode}))
	for _, a := range attrs {
		if a.Key >= kids[0].Key {
			t.Fatalf("attribute %q not before content %q", a.Key, kids[0].Key)
		}
	}
	if n, _ := cur(s).CountAttrName(d, "lang"); n != 1 {
		t.Errorf("CountAttrName(lang) = %d", n)
	}
	// Attribute insertion into an element that has no children yet.
	c := kids[0].Key
	if err := update(s, func(u *Update) error { _, err := u.InsertAttribute(d, c, "x", "1"); return err }); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, s.AxisScan(d, c, AxisAttribute, NodeTest{Type: TestWildcard})); len(got) != 1 {
		t.Fatalf("child attrs = %d", len(got))
	}
}

func TestRenameElement(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r><old/><old/></r>`)
	k := firstNamed(t, s, d, "old")
	if err := update(s, func(u *Update) error { return u.RenameElement(d, k, "new") }); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.CountName(d, "old"); n != 1 {
		t.Errorf("CountName(old) = %d", n)
	}
	if n, _ := s.CountName(d, "new"); n != 1 {
		t.Errorf("CountName(new) = %d", n)
	}
	// Wildcard scans (elems index) must see the new name too.
	found := false
	for _, n := range collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestWildcard})) {
		if n.Name == "new" {
			found = true
		}
	}
	if !found {
		t.Error("renamed element invisible to wildcard scan")
	}
}

func TestDeleteSubtree(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", personXML)
	persons := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: "person"}))
	if len(persons) != 2 {
		t.Fatal("setup failed")
	}
	before, _ := cur(s).CountNodes(d)
	if err := update(s, func(u *Update) error { return u.DeleteSubtree(d, persons[0].Key) }); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.CountName(d, "person"); n != 1 {
		t.Errorf("persons after delete = %d", n)
	}
	if n, _ := s.CountName(d, "watch"); n != 0 {
		t.Errorf("watches after delete = %d (descendants must go too)", n)
	}
	if tc, _ := cur(s).TextCount(d, "Yung Flach", ""); tc != 0 {
		t.Errorf("TC(Yung Flach) = %d after deleting its person", tc)
	}
	after, _ := cur(s).CountNodes(d)
	if after >= before {
		t.Errorf("node count %d -> %d", before, after)
	}
	// The other person is untouched.
	if _, ok, _ := s.Node(d, persons[1].Key); !ok {
		t.Error("sibling person lost")
	}
	// Deleting the document node is rejected.
	if err := update(s, func(u *Update) error { return u.DeleteSubtree(d, flex.Root) }); err == nil {
		t.Error("deleting document node succeeded")
	}
}

func TestUpdateErrors(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r><a>t</a></r>`)
	if err := update(s, func(u *Update) error { _, err := u.InsertElement(d, "a.zz", 0, "x"); return err }); err == nil {
		t.Error("insert under missing parent succeeded")
	}
	texts := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestText}))
	if err := update(s, func(u *Update) error { _, err := u.InsertElement(d, texts[0].Key, 0, "x"); return err }); err == nil {
		t.Error("insert under a text node succeeded")
	}
	r := firstNamed(t, s, d, "r")
	if err := update(s, func(u *Update) error { return u.UpdateText(d, r, "v") }); err == nil {
		t.Error("UpdateText on an element succeeded")
	}
	if err := update(s, func(u *Update) error { return u.RenameElement(d, texts[0].Key, "x") }); err == nil {
		t.Error("RenameElement on a text node succeeded")
	}
	if err := update(s, func(u *Update) error { return u.DeleteSubtree(d, "a.zz") }); err == nil {
		t.Error("deleting a missing node succeeded")
	}
}

// TestStatisticsCurrencyAfterUpdates is the paper's core update claim:
// after arbitrary mutations, statistics probes are exactly right with no
// maintenance step, so cost estimates stay accurate.
func TestStatisticsCurrencyAfterUpdates(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r><zone/></r>`)
	zone := firstNamed(t, s, d, "zone")
	for i := 0; i < 500; i++ {
		err := update(s, func(u *Update) error {
			k, err := u.InsertElement(d, zone, -1, "item")
			if err != nil {
				return err
			}
			_, err = u.InsertText(d, k, -1, fmt.Sprintf("v%d", i%7))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.CountName(d, "item"); n != 500 {
		t.Fatalf("CountName(item) = %d", n)
	}
	// v0 appears for i = 0, 7, 14, ... -> ceil(500/7) = 72.
	if tc, _ := cur(s).TextCount(d, "v0", ""); tc != 72 {
		t.Fatalf("TC(v0) = %d, want 72", tc)
	}
	// Delete half the items and re-check.
	items := collect(t, s.AxisScan(d, zone, AxisChild, NodeTest{Type: TestName, Name: "item"}))
	for i := 0; i < 250; i++ {
		if err := update(s, func(u *Update) error { return u.DeleteSubtree(d, items[i].Key) }); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.CountName(d, "item"); n != 250 {
		t.Fatalf("CountName(item) after deletes = %d", n)
	}
	var wantTC uint64
	for i := 250; i < 500; i++ {
		if i%7 == 0 {
			wantTC++
		}
	}
	if tc, _ := cur(s).TextCount(d, "v0", ""); tc != wantTC {
		t.Fatalf("TC(v0) after deletes = %d, want %d", tc, wantTC)
	}
}
