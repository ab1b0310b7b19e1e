package vamana

import (
	"context"
	"strings"
	"testing"

	"vamana/internal/baseline/dom"
	"vamana/internal/xmark"
)

// The result fetch path: Results.Node reads each result through one
// positioned cursor on the clustered index per run, and StringValue
// walks an element's subtree forward. Both must read exactly what a
// fresh point read (Document.Node) and the DOM oracle read.

// checkNodes drains expr on doc, fetching every result, and requires
// each node to equal ref's point read of its key. It returns the keys in
// delivery order.
func checkNodes(t *testing.T, db *DB, doc, ref *Document, expr string) []string {
	t.Helper()
	res, err := db.Query(doc, expr)
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	var keys []string
	for n, err := range res.All() {
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		want, ok, err := ref.Node(n.Key)
		if err != nil || !ok {
			t.Fatalf("%s: point read of %q: ok=%v err=%v", expr, n.Key, ok, err)
		}
		if n != want {
			t.Fatalf("%s: result %q fetched %+v, point read %+v", expr, n.Key, n, want)
		}
		keys = append(keys, n.Key)
	}
	return keys
}

func TestResultsNodeEqualsPointRead(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.005)
	total := 0
	for _, expr := range append(workloadExprs[:len(workloadExprs):len(workloadExprs)], "//*") {
		total += len(checkNodes(t, db, doc, doc, expr))
	}
	if total == 0 {
		t.Fatal("the workload queries returned nothing")
	}

	// An unordered reverse axis delivers keys out of document order, so
	// the fetch cursor is sent backwards and must re-descend.
	const reverse = "//watch/ancestor::*"
	keys := checkNodes(t, db, doc, doc, reverse)
	backwards := 0
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			backwards++
		}
	}
	if backwards == 0 {
		t.Fatalf("%s delivered its %d keys in document order; the case needs keys out of order", reverse, len(keys))
	}
}

func TestResultsNodeOverflowValue(t *testing.T) {
	db := openDB(t)
	big := strings.Repeat("overflow-", 1000) // past the B+-tree's inline value limit
	doc, err := db.LoadXMLString("big", "<r><a>small</a><b>"+big+"</b><a k='"+big+"'>tail</a></r>")
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"//text()", "//@k", "//*"} {
		checkNodes(t, db, doc, doc, expr)
	}
	res, err := db.Query(doc, "//b/text()")
	if err != nil {
		t.Fatal(err)
	}
	for n, err := range res.All() {
		if err != nil || n.Value != big {
			t.Fatalf("overflowed text fetched as %d bytes (err %v), want %d", len(n.Value), err, len(big))
		}
	}
}

// TestResultsNodeReadsPinnedVersion commits renames, text updates and a
// subtree delete halfway through a drain: every result fetched after the
// commit must still read the version the run pinned.
func TestResultsNodeReadsPinnedVersion(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.005)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	ref, err := snap.Document("auction")
	if err != nil {
		t.Fatal(err)
	}
	all, err := mustKeys(db, doc, "//*")
	if err != nil {
		t.Fatal(err)
	}
	texts, err := mustKeys(db, doc, "//text()")
	if err != nil {
		t.Fatal(err)
	}

	res, err := db.Query(doc, "//*")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	n := 0
	for res.Next() {
		if n == len(all)/2 {
			// The second half of the document changes under the stream.
			if err := db.Update(func(tx *Txn) error {
				for _, k := range all[len(all)/2+1:] {
					if err := tx.RenameElement(doc, k, "renamed"); err != nil {
						return err
					}
				}
				for _, k := range texts[len(texts)/2:] {
					if err := tx.UpdateText(doc, k, "changed"); err != nil {
						return err
					}
				}
				return tx.DeleteSubtree(doc, all[len(all)-1])
			}); err != nil {
				t.Fatal(err)
			}
		}
		got, err := res.Node()
		if err != nil {
			t.Fatal(err)
		}
		want, ok, err := ref.Node(got.Key)
		if err != nil || !ok || got != want {
			t.Fatalf("result %d after a mid-stream commit: fetched %+v, pinned version holds %+v (ok=%v err=%v)", n, got, want, ok, err)
		}
		n++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(all) {
		t.Fatalf("drain delivered %d results, the pinned version has %d", n, len(all))
	}
	live, ok, err := doc.Node(all[len(all)/2+1])
	if err != nil || !ok || live.Name != "renamed" {
		t.Fatalf("the commit did not land: %+v ok=%v err=%v", live, ok, err)
	}
}

func mustKeys(db *DB, doc *Document, expr string) ([]string, error) {
	res, err := db.QueryContext(context.Background(), doc, expr, Ordered())
	if err != nil {
		return nil, err
	}
	return res.Keys()
}

// TestStringValueMatchesDOM checks the forward subtree walk against the
// DOM oracle on every node of documents with mixed content: attributes,
// comments, processing instructions, nested text, and elements with no
// text at all.
func TestStringValueMatchesDOM(t *testing.T) {
	big := strings.Repeat("long ", 600)
	for name, src := range map[string]string{
		"mixed": `<?xml version="1.0"?><!-- lead --><r a="attr">head<?pi data?><x y="1">one<!-- c --><z>two<w/>three</z></x>` +
			`<empty k="v"/><e2><e3/></e2>mid<x>` + big + `</x><!-- c2 --><?pi2 more?>tail</r>`,
		"xmark": xmark.GenerateString(xmark.Config{Factor: 0.002, Seed: 7}),
	} {
		t.Run(name, func(t *testing.T) {
			db := openDB(t)
			doc, err := db.LoadXMLString(name, src)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := dom.Parse(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range oracle.Nodes {
				got, err := doc.StringValue(string(n.Key))
				if err != nil {
					t.Fatalf("%s node %q: %v", n.Kind, n.Key, err)
				}
				if want := n.StringValue(); got != want {
					t.Fatalf("%s node %q (%s): string-value %q, DOM %q", n.Kind, n.Key, n.Name, got, want)
				}
			}
		})
	}
}

// TestNodeMissingKey reads a key no node holds: the fetch cursor lands on
// the next key in the index, which must not be taken for it.
func TestNodeMissingKey(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("abc", "<r><a>1</a><b>2</b><c>3</c></r>")
	if err != nil {
		t.Fatal(err)
	}
	keys, err := mustKeys(db, doc, "//b")
	if err != nil || len(keys) != 1 {
		t.Fatalf("//b: %v %v", keys, err)
	}
	if err := db.Update(func(tx *Txn) error { return tx.DeleteSubtree(doc, keys[0]) }); err != nil {
		t.Fatal(err)
	}
	if n, ok, err := doc.Node(keys[0]); ok || err != nil {
		t.Fatalf("Node of a deleted key = %+v, ok=%v, err=%v; want not found", n, ok, err)
	}
}
