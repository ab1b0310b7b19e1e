package vamana

import (
	"context"
	"testing"
)

// TestPublicUpdateAPI drives the update surface end to end: mutate,
// query, verify that plans see fresh statistics.
func TestPublicUpdateAPI(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("d", `<inventory><shelf/></inventory>`)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := db.Prepare("//shelf", WithoutCache())
	res, _ := q.Run(context.Background(), doc)
	shelves, _ := res.Keys()
	if len(shelves) != 1 {
		t.Fatal("setup failed")
	}
	shelf := shelves[0]

	// Build content via the update API alone.
	for i := 0; i < 10; i++ {
		mustUpdate(t, db, func(tx *Txn) error {
			book, err := tx.InsertElement(doc, shelf, -1, "book")
			if err != nil {
				return err
			}
			title, err := tx.InsertElement(doc, book, -1, "title")
			if err != nil {
				return err
			}
			if _, err := tx.InsertText(doc, title, -1, "Systems Title"); err != nil {
				return err
			}
			_, err = tx.InsertAttribute(doc, book, "isbn", "900-"+string(rune('0'+i)))
			return err
		})
	}
	if n, _ := doc.CountName("book"); n != 10 {
		t.Fatalf("CountName(book) = %d", n)
	}
	if tc, _ := doc.TextCount("Systems Title"); tc != 10 {
		t.Fatalf("TextCount = %d", tc)
	}

	// Queries see the new content, including attribute predicates.
	qb, _ := db.Prepare("//book[title='Systems Title']", WithDocument(doc), WithoutCache())
	rb, _ := qb.Run(context.Background(), doc)
	books, err := rb.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(books) != 10 {
		t.Fatalf("books via query = %d", len(books))
	}

	// Update one title and delete one book.
	qt, _ := db.Prepare("//book[1]/title/text()", WithoutCache())
	rt, _ := qt.Run(context.Background(), doc)
	titles, _ := rt.Keys()
	if len(titles) != 1 {
		t.Fatalf("first book titles = %d", len(titles))
	}
	mustUpdate(t, db, func(tx *Txn) error { return tx.UpdateText(doc, titles[0], "Revised Title") })
	if tc, _ := doc.TextCount("Systems Title"); tc != 9 {
		t.Fatalf("TC after update = %d", tc)
	}
	mustUpdate(t, db, func(tx *Txn) error { return tx.DeleteSubtree(doc, books[len(books)-1]) })
	if n, _ := doc.CountName("book"); n != 9 {
		t.Fatalf("books after delete = %d", n)
	}
	mustUpdate(t, db, func(tx *Txn) error { return tx.RenameElement(doc, shelf, "case") })
	if n, _ := doc.CountName("case"); n != 1 {
		t.Fatalf("CountName(case) = %d", n)
	}
}

// TestOptimizerSeesUpdatedStatistics: after mutations change which
// operator is the most selective, re-optimizing the same expression picks
// a different plan — the payoff of statistics that never go stale.
func TestOptimizerSeesUpdatedStatistics(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("d", `<r><people><person><tag/></person></people><dump/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	// Make "tag" vastly more common than "person": the parent-inversion
	// rewrite of //tag/parent::person is then profitable.
	q, _ := db.Prepare("//dump", WithoutCache())
	res, _ := q.Run(context.Background(), doc)
	dumpKeys, _ := res.Keys()
	dump := dumpKeys[0]
	insertN(t, db, doc, dump, "tag", 200)

	expr := "//tag/parent::person"
	before, err := db.Prepare(expr, WithDocument(doc), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	exBefore, _ := before.Explain(doc)

	// Results stay correct either way.
	rb, _ := before.Run(context.Background(), doc)
	kb, _ := rb.Keys()
	if len(kb) != 1 {
		t.Fatalf("persons with tag = %d", len(kb))
	}

	// Now invert the skew: many persons, few tags.
	insertN(t, db, doc, dump, "person", 200)
	after, err := db.Prepare(expr, WithDocument(doc), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	exAfter, _ := after.Explain(doc)
	if exBefore == exAfter {
		t.Fatalf("optimizer ignored a 400-element statistics shift:\n%s", exAfter)
	}
	ra, _ := after.Run(context.Background(), doc)
	ka, _ := ra.Keys()
	if len(ka) != 1 {
		t.Fatalf("persons with tag after updates = %d", len(ka))
	}
}

// insertN appends n empty elements named name under parent in one
// transaction.
func insertN(t *testing.T, db *DB, doc *Document, parent, name string, n int) {
	t.Helper()
	mustUpdate(t, db, func(tx *Txn) error {
		for i := 0; i < n; i++ {
			if _, err := tx.InsertElement(doc, parent, -1, name); err != nil {
				return err
			}
		}
		return nil
	})
}
