package vamana

import (
	"context"
	"errors"
	"strings"
	"testing"
)

var errAbort = errors.New("abort transaction")

// queryKeys runs expr against doc and returns the matched FLEX keys.
func queryKeys(db *DB, doc *Document, expr string) ([]string, error) {
	res, err := db.Query(doc, expr)
	if err != nil {
		return nil, err
	}
	return res.Keys()
}

// TestNoDirtyReadsDuringTransaction is the regression test for the
// DESIGN §13 limitation: direct Document reads (CountName, Stats, Node,
// StringValue, WriteXML, queries, prepared runs, ExplainAnalyze) issued
// while a DB.Update is open used to hit the live trees and observe the
// transaction's buffered writes. They must observe the last committed
// state instead, from the very first transaction on.
func TestNoDirtyReadsDuringTransaction(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("d", `<lib><book><title>Committed</title></book></lib>`)
	if err != nil {
		t.Fatal(err)
	}

	keys, err := queryKeys(db, doc, "//book")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("setup: %d books", len(keys))
	}

	book, err := db.Prepare("//book", WithDocument(doc))
	if err != nil {
		t.Fatal(err)
	}

	// First-ever transaction: no commit has installed a shared snapshot
	// yet, so this exercises Update's pre-install path.
	if err := db.Update(func(tx *Txn) error {
		root, err := queryKeys(db, doc, "/lib")
		if err != nil {
			return err
		}
		bk, err := tx.InsertElement(doc, root[0], -1, "book")
		if err != nil {
			return err
		}
		ttl, err := tx.InsertElement(doc, bk, -1, "title")
		if err != nil {
			return err
		}
		if _, err := tx.InsertText(doc, ttl, -1, "Buffered"); err != nil {
			return err
		}

		// Every direct read below runs mid-transaction and must see only
		// the committed single-book state.
		if n, err := doc.CountName("book"); err != nil || n != 1 {
			t.Errorf("mid-txn CountName(book) = %d, %v; want 1 (dirty read)", n, err)
		}
		if tc, err := doc.TextCount("Buffered"); err != nil || tc != 0 {
			t.Errorf("mid-txn TextCount(Buffered) = %d, %v; want 0 (dirty read)", tc, err)
		}
		st, err := doc.Stats()
		if err != nil {
			t.Errorf("mid-txn Stats: %v", err)
		} else if st.Elements != 3 {
			t.Errorf("mid-txn Stats.Elements = %d, want 3 (lib, book, title)", st.Elements)
		}
		if _, ok, err := doc.Node(bk); err != nil || ok {
			t.Errorf("mid-txn Node(buffered key) visible = %v, %v; want absent", ok, err)
		}
		var sb strings.Builder
		if err := doc.WriteXML("a", &sb); err != nil {
			t.Errorf("mid-txn WriteXML: %v", err)
		} else if strings.Contains(sb.String(), "Buffered") {
			t.Errorf("mid-txn WriteXML leaked buffered text: %s", sb.String())
		}
		if got, err := queryKeys(db, doc, "//book"); err != nil || len(got) != 1 {
			t.Errorf("mid-txn query //book = %d keys, %v; want 1", len(got), err)
		}
		if res, err := book.Run(context.Background(), doc); err != nil {
			t.Errorf("mid-txn Query.Run: %v", err)
		} else if got, err := res.Keys(); err != nil || len(got) != 1 {
			t.Errorf("mid-txn Query.Run //book = %d keys, %v; want 1 (dirty read)", len(got), err)
		}
		if an, err := book.ExplainAnalyze(doc); err != nil || !strings.Contains(an, "act OUT=1\n") {
			t.Errorf("mid-txn ExplainAnalyze(//book) = %v; want act OUT=1 (dirty read):\n%s", err, an)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// After commit everything is visible.
	if n, _ := doc.CountName("book"); n != 2 {
		t.Fatalf("post-commit CountName(book) = %d, want 2", n)
	}
	if tc, _ := doc.TextCount("Buffered"); tc != 1 {
		t.Fatalf("post-commit TextCount(Buffered) = %d, want 1", tc)
	}
	var sb strings.Builder
	if err := doc.WriteXML("a", &sb); err != nil || !strings.Contains(sb.String(), "Buffered") {
		t.Fatalf("post-commit WriteXML missing new book: %v %s", err, sb.String())
	}

	// Second transaction: the commit-installed shared snapshot covers
	// reads, and a rollback leaves the committed state untouched.
	rollback := func(tx *Txn) error {
		root, err := queryKeys(db, doc, "/lib")
		if err != nil {
			return err
		}
		if _, err := tx.InsertElement(doc, root[0], -1, "pamphlet"); err != nil {
			return err
		}
		if n, err := doc.CountName("pamphlet"); err != nil || n != 0 {
			t.Errorf("mid-txn CountName(pamphlet) = %d, %v; want 0 (dirty read)", n, err)
		}
		return errAbort
	}
	if err := db.Update(rollback); err != errAbort {
		t.Fatalf("rollback Update err = %v", err)
	}
	if n, _ := doc.CountName("pamphlet"); n != 0 {
		t.Fatalf("post-rollback CountName(pamphlet) = %d, want 0", n)
	}
	if n, _ := doc.CountName("book"); n != 2 {
		t.Fatalf("post-rollback CountName(book) = %d, want 2", n)
	}
}
