package vamana

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vamana/internal/xmark"
)

// TestQueryServing exercises the one-shot serving API: first call
// compiles, repeats hit the plan cache, and an update to the document
// invalidates its cached plan.
func TestQueryServing(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)

	const expr = "//person/address"
	res, err := db.Query(doc, expr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no results from serving query")
	}

	for i := 0; i < 5; i++ {
		res, err := db.Query(doc, expr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Keys()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("repeat %d: result set changed: %d keys vs %d", i, len(got), len(want))
		}
	}
	st := db.CacheStats()
	if st.Hits < 5 {
		t.Fatalf("expected >=5 plan cache hits, got %+v", st)
	}

	// Deleting a matching subtree must invalidate the cached plan and the
	// re-served result set must shrink.
	mustUpdate(t, db, func(tx *Txn) error { return tx.DeleteSubtree(doc, want[0]) })
	res, err = db.Query(doc, expr)
	if err != nil {
		t.Fatal(err)
	}
	after, err := res.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(want)-1 {
		t.Fatalf("after delete: %d results, want %d", len(after), len(want)-1)
	}
	st = db.CacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("document update did not invalidate the cached plan: %+v", st)
	}
}

// TestQueryServingConcurrent is the serving regression test from the
// issue: one DB, one repeatedly-served expression, 16 goroutines split
// across 2 documents, every goroutine must observe exactly the result set
// of a fresh uncached compile for its document.
func TestQueryServingConcurrent(t *testing.T) {
	db := openDB(t)
	d1 := loadAuction(t, db, 0.003)
	src2 := xmark.GenerateString(xmark.Config{Factor: 0.005, Seed: 97})
	d2, err := db.LoadXMLString("auction2", src2)
	if err != nil {
		t.Fatal(err)
	}

	const expr = "//person[address]/name"
	want := make(map[*Document][]string)
	for _, d := range []*Document{d1, d2} {
		q, err := db.Prepare(expr, WithDocument(d), WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Run(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := res.Keys()
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) == 0 {
			t.Fatalf("baseline for %s returned nothing", d.Name())
		}
		want[d] = keys
	}

	const goroutines = 16
	const repeats = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		d := d1
		if g%2 == 1 {
			d = d2
		}
		wg.Add(1)
		go func(g int, d *Document) {
			defer wg.Done()
			for r := 0; r < repeats; r++ {
				res, err := db.Query(d, expr)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d repeat %d: %v", g, r, err)
					return
				}
				got, err := res.Keys()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d repeat %d: %v", g, r, err)
					return
				}
				if !reflect.DeepEqual(got, want[d]) {
					errs <- fmt.Errorf("goroutine %d repeat %d on %s: got %d keys, want %d",
						g, r, d.Name(), len(got), len(want[d]))
					return
				}
			}
			errs <- nil
		}(g, d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestSharedQueryConcurrentExplain pins down the shared-plan mutation
// race: Estimate/Explain/ExplainAnalyze annotate a clone, never the
// query's own plan, so one compiled Query object may be used from many
// goroutines at once (run under -race).
func TestSharedQueryConcurrentExplain(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)
	q, err := db.Prepare("//person/address", WithDocument(doc), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var err error
			switch g % 3 {
			case 0:
				_, err = q.Explain(doc)
			case 1:
				_, err = q.ExplainAnalyze(doc)
			case 2:
				var res *Results
				if res, err = q.Run(context.Background(), doc); err == nil {
					_, err = res.Keys()
				}
			}
			errs <- err
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
