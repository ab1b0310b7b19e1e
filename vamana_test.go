package vamana

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"vamana/internal/xmark"
)

func openDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// mustUpdate runs fn as one DB.Update transaction and fails the test if
// it does not commit.
func mustUpdate(t testing.TB, db *DB, fn func(tx *Txn) error) {
	t.Helper()
	if err := db.Update(fn); err != nil {
		t.Fatal(err)
	}
}

func loadAuction(t testing.TB, db *DB, factor float64) *Document {
	t.Helper()
	src := xmark.GenerateString(xmark.Config{Factor: factor, Seed: 51})
	doc, err := db.LoadXMLString("auction", src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestQuickstartFlow(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)

	q, err := db.Prepare("//person/address", WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for res.Next() {
		n, err := res.Node()
		if err != nil {
			t.Fatal(err)
		}
		if n.Name != "address" || n.Kind != KindElement {
			t.Fatalf("unexpected result node %+v", n)
		}
		count++
	}
	if res.Err() != nil {
		t.Fatal(res.Err())
	}
	if count == 0 {
		t.Fatal("no addresses found")
	}

	// The optimized query returns the same set.
	qo, err := db.Prepare("//person/address", WithDocument(doc), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if !qo.Optimized() {
		t.Fatal("Prepare WithDocument did not mark the query optimized")
	}
	ro, err := qo.Run(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := ro.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != count {
		t.Fatalf("optimized result size %d != default %d", len(keys), count)
	}
}

func TestExplain(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.002)
	q, err := db.Prepare("//province[text()='Vermont']/ancestor::person", WithDocument(doc), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Explain(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"query:", "optimized: true", "δ=", "ordered list"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
}

func TestStatsAndCounts(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.002)
	st, err := doc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes == 0 || st.Elements == 0 || st.Texts == 0 {
		t.Fatalf("stats = %+v", st)
	}
	persons, err := doc.CountName("person")
	if err != nil {
		t.Fatal(err)
	}
	want := xmark.CountsFor(0.002).Persons
	if int(persons) != want {
		t.Fatalf("CountName(person) = %d, want %d", persons, want)
	}
	tc, err := doc.TextCount("Yung Flach")
	if err != nil {
		t.Fatal(err)
	}
	if tc != 1 {
		t.Fatalf("TextCount(Yung Flach) = %d, want 1", tc)
	}
}

func TestStringValueAndNodeFetch(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.002)
	q, _ := db.Prepare("//person[name='Yung Flach']/name", WithoutCache())
	res, err := q.Run(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Next() {
		t.Fatal("no result")
	}
	sv, err := res.StringValue()
	if err != nil {
		t.Fatal(err)
	}
	if sv != "Yung Flach" {
		t.Fatalf("string value = %q", sv)
	}
	n, ok, err := doc.Node(res.Key())
	if err != nil || !ok || n.Name != "name" {
		t.Fatalf("Node fetch = %+v %v %v", n, ok, err)
	}
}

func TestExecuteFrom(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.002)
	q, _ := db.Prepare("//person[address/province='Vermont']", WithoutCache())
	res, _ := q.Run(context.Background(), doc)
	keys, err := res.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Skip("no Vermont persons at this factor/seed")
	}
	rel, _ := db.Prepare("address/city", WithoutCache())
	r2, err := rel.Run(context.Background(), doc, From(keys[0], nil))
	if err != nil {
		t.Fatal(err)
	}
	cities, err := r2.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(cities) != 1 {
		t.Fatalf("cities from person = %d", len(cities))
	}
}

func TestMultipleDocuments(t *testing.T) {
	db := openDB(t)
	d1, err := db.LoadXMLString("a", "<r><x>1</x></r>")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := db.LoadXMLString("b", "<r><x>2</x><x>3</x></r>")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := db.Prepare("//x", WithoutCache())
	r1, _ := q.Run(context.Background(), d1)
	k1, _ := r1.Keys()
	r2, _ := q.Run(context.Background(), d2)
	k2, _ := r2.Keys()
	if len(k1) != 1 || len(k2) != 2 {
		t.Fatalf("cross-document results: %d, %d", len(k1), len(k2))
	}
	if len(db.Documents()) != 2 {
		t.Fatalf("Documents = %v", db.Documents())
	}
	if err := db.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Document("a"); err == nil {
		t.Fatal("dropped document still resolvable")
	}
}

func TestPersistentDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vamana.db")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("doc", "<r><x>hello</x></r>"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	doc, err := db2.Document("doc")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := db2.Prepare("//x", WithoutCache())
	res, _ := q.Run(context.Background(), doc)
	keys, err := res.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("results after reopen = %d", len(keys))
	}
}

func TestCompileErrors(t *testing.T) {
	db := openDB(t)
	if _, err := db.Prepare("///", WithoutCache()); err == nil {
		t.Fatal("bad expression compiled")
	}
	if _, err := db.Prepare("1 + 2", WithoutCache()); err == nil {
		t.Fatal("non-path expression compiled")
	}
	if _, err := db.Document("ghost"); err == nil {
		t.Fatal("ghost document resolved")
	}
}

func TestWriteXMLAndNumericRange(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("d", `<cart><item price="x"><cost>12.50</cost></item><item><cost>99</cost></item></cart>`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := doc.WriteXML("a", &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<cost>12.50</cost>") {
		t.Fatalf("serialized: %q", b.String())
	}
	// Fragment export from a query result.
	q, _ := db.Prepare("//item[cost=99]", WithoutCache())
	res, _ := q.Run(context.Background(), doc)
	keys, _ := res.Keys()
	if len(keys) != 1 {
		t.Fatal("setup failed")
	}
	b.Reset()
	if err := doc.WriteXML(keys[0], &b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "<item><cost>99</cost></item>" {
		t.Fatalf("fragment = %q", b.String())
	}
	// Numeric range statistics.
	if n, _ := doc.NumericRangeCount(0, 50); n != 1 {
		t.Fatalf("NumericRangeCount(0,50) = %d", n)
	}
	if n, _ := doc.NumericRangeCount(0, 100); n != 2 {
		t.Fatalf("NumericRangeCount(0,100) = %d", n)
	}
	// Range-predicate queries run through the rewrite end to end.
	qr, err := db.Prepare("//cost[text() < 50]", WithDocument(doc), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := qr.Run(context.Background(), doc)
	hits, err := rr.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("range query hits = %d", len(hits))
	}
}

// TestNumericRangeCountPerDocument: a document's numeric range count
// counts its own values only, however another document's values
// interleave with them in the numeric index.
func TestNumericRangeCountPerDocument(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a, err := db.LoadXMLString("a", `<r><v>1</v><v>9</v></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("b", `<r><v>5</v><v>6</v><v>7</v></r>`); err != nil {
		t.Fatal(err)
	}
	if n, err := a.NumericRangeCount(0, 10); err != nil || n != 2 {
		t.Fatalf("a.NumericRangeCount(0, 10) = %d, %v; want 2", n, err)
	}
}
