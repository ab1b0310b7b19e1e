package mass

import (
	"strings"
	"testing"

	"vamana/internal/flex"
	"vamana/internal/xmldoc"
)

func serialize(t *testing.T, s *Store, d DocID, key flex.Key) string {
	t.Helper()
	return serializeView(t, cur(s), d, key)
}

func serializeView(t *testing.T, v *View, d DocID, key flex.Key) string {
	t.Helper()
	var b strings.Builder
	if err := v.SerializeSubtree(d, key, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSerializeRoundTrip(t *testing.T) {
	src := `<site><person id="p1"><name>Yung Flach</name><note><!--hi--><?pi data?></note><empty/></person></site>`
	s := openMem(t)
	d := loadDoc(t, s, "doc", src)
	out := serialize(t, s, d, flex.Root)

	// Re-shred the output and compare the node streams structurally.
	var orig, round []xmldoc.Node
	if err := xmldoc.Parse(strings.NewReader(src), func(n xmldoc.Node) error {
		orig = append(orig, n)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := xmldoc.Parse(strings.NewReader(out), func(n xmldoc.Node) error {
		round = append(round, n)
		return nil
	}); err != nil {
		t.Fatalf("serialized output is not well-formed: %v\n%s", err, out)
	}
	if len(orig) != len(round) {
		t.Fatalf("node count %d -> %d\n%s", len(orig), len(round), out)
	}
	for i := range orig {
		if orig[i].Kind != round[i].Kind || orig[i].Name != round[i].Name || orig[i].Value != round[i].Value {
			t.Fatalf("node %d: %+v vs %+v", i, orig[i], round[i])
		}
	}
}

func TestSerializeSubtreeOnly(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r><a><x>1</x></a><b/></r>`)
	a := firstNamed(t, s, d, "a")
	out := serialize(t, s, d, a)
	if out != "<a><x>1</x></a>" {
		t.Fatalf("subtree = %q", out)
	}
}

func TestSerializeEscaping(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r>a &lt; b &amp; c</r>`)
	out := serialize(t, s, d, flex.Root)
	if !strings.Contains(out, "a &lt; b &amp; c") {
		t.Fatalf("escaping lost: %q", out)
	}
}

func TestSerializeAfterUpdates(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r><a/></r>`)
	r := firstNamed(t, s, d, "r")
	a := firstNamed(t, s, d, "a")
	if err := update(s, func(u *Update) error { _, err := u.InsertElement(d, r, 0, "pre"); return err }); err != nil {
		t.Fatal(err)
	}
	if err := update(s, func(u *Update) error { _, err := u.InsertAttribute(d, a, "k", "v"); return err }); err != nil {
		t.Fatal(err)
	}
	if err := update(s, func(u *Update) error { _, err := u.InsertText(d, a, -1, "body"); return err }); err != nil {
		t.Fatal(err)
	}
	out := serialize(t, s, d, flex.Root)
	if out != `<r><pre/><a k="v">body</a></r>` {
		t.Fatalf("serialized = %q", out)
	}
}
