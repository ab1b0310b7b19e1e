package vamana

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestQueryOptionsEveryEntryPoint: Ordered and From mean the same thing
// on every way into the engine — DB.QueryContext and a prepared
// Query.Run, on a live handle before any transaction (live store), on a
// snapshot handle (pinned version) and on a live handle after an Update
// (shared committed snapshot). Each run must return the same keys, in
// document order.
func TestQueryOptionsEveryEntryPoint(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("d", `<r><b><x><c/></x><d/></b><e/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	one := func(expr string) string {
		t.Helper()
		keys, err := queryKeys(db, doc, expr)
		if err != nil || len(keys) != 1 {
			t.Fatalf("%s: %v, %v", expr, keys, err)
		}
		return keys[0]
	}
	b := one("/r/b")
	cases := []struct {
		expr string
		opt  QueryOption
		want []string
	}{
		// A reverse axis streams nearest ancestor first; Ordered sorts.
		{"//c/ancestor::*", Ordered(), []string{one("/r"), b, one("/r/b/x")}},
		// From starts at b, not at the document root.
		{"child::*", From(b, nil), []string{one("/r/b/x"), one("/r/b/d")}},
	}

	ctx := context.Background()
	queried := func(d *Document) func(string, QueryOption) (*Results, error) {
		return func(expr string, opt QueryOption) (*Results, error) {
			return db.QueryContext(ctx, d, expr, opt)
		}
	}
	prepared := func(d *Document) func(string, QueryOption) (*Results, error) {
		return func(expr string, opt QueryOption) (*Results, error) {
			q, err := db.Prepare(expr, WithDocument(d))
			if err != nil {
				return nil, err
			}
			return q.Run(ctx, d, opt)
		}
	}
	check := func(name string, run func(string, QueryOption) (*Results, error)) {
		t.Helper()
		for _, c := range cases {
			res, err := run(c.expr, c.opt)
			if err != nil {
				t.Errorf("%s %s: %v", name, c.expr, err)
				continue
			}
			got, err := res.Keys()
			if err != nil || !slices.Equal(got, c.want) {
				t.Errorf("%s %s = %v, %v; want %v", name, c.expr, got, err, c.want)
			}
		}
	}

	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	sdoc, err := sn.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	check("DB.QueryContext live", queried(doc))
	check("Query.Run live", prepared(doc))
	check("DB.QueryContext snapshot", queried(sdoc))
	check("Query.Run snapshot", prepared(sdoc))

	// A commit that leaves the answers alone installs the shared snapshot
	// live handles then read.
	e := one("/r/e")
	mustUpdate(t, db, func(tx *Txn) error {
		_, err := tx.InsertElement(doc, e, -1, "f")
		return err
	})
	check("DB.QueryContext after Update", queried(doc))
	check("Query.Run after Update", prepared(doc))
}

// TestPreparedRunObserved: a prepared Query.Run is a query like any
// other — it counts toward its snapshot's usage and lands in the
// slow-query ring.
func TestPreparedRunObserved(t *testing.T) {
	ctx := context.Background()
	drain := func(q *Query, d *Document) {
		t.Helper()
		res, err := q.Run(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		if keys, err := res.Keys(); err != nil || len(keys) == 0 {
			t.Fatalf("prepared run: %d keys, %v", len(keys), err)
		}
	}

	t.Run("snapshot usage", func(t *testing.T) {
		db := openDB(t)
		if _, err := db.LoadXMLString("d", `<r><b/><b/></r>`); err != nil {
			t.Fatal(err)
		}
		sn, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer sn.Close()
		sdoc, err := sn.Document("d")
		if err != nil {
			t.Fatal(err)
		}
		q, err := db.Prepare("//b", WithDocument(sdoc))
		if err != nil {
			t.Fatal(err)
		}
		drain(q, sdoc)
		if u := sn.Usage(); u.Queries != 1 || u.Results != 2 {
			t.Fatalf("snapshot usage after one prepared run = %+v, want 1 query, 2 results", u)
		}
	})

	t.Run("slow query", func(t *testing.T) {
		db, err := Open(Options{SlowQueryThreshold: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		doc, err := db.LoadXMLString("d", `<r><b/><b/></r>`)
		if err != nil {
			t.Fatal(err)
		}
		q, err := db.Prepare("//b", WithDocument(doc))
		if err != nil {
			t.Fatal(err)
		}
		drain(q, doc)
		slow := db.SlowQueries()
		if len(slow) != 1 || slow[0].Expr != "//b" || slow[0].Results != 2 || !slow[0].CacheHit {
			t.Fatalf("slow queries after one prepared run = %+v, want one cache-hit //b record", slow)
		}
	})
}
