package vamana

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vamana/internal/obs"
	"vamana/internal/xmark"
)

// heavyExpr produces a large result set on XMark documents through a
// chain of per-context binds (every name element, its parent, a self
// test, a child step). Its name and wildcard tests are answered from the
// indexes alone, so it decodes no records and drains a 10 MB document in
// about a millisecond: use it where a test wants many results and pooled
// multi-step run state, not where governance must catch a query at work.
const heavyExpr = "/descendant::name/parent::*/self::person/address"

// recordExpr is the query governance interrupts: child::node() must tell
// an element's children from its attributes, which only the clustered
// record's kind can, so the second step — one bind per element of the
// document, fed a batch of contexts at a time by an index-only first
// step — reads and decodes a record per candidate. The drain takes tens
// of milliseconds on the 10 MB fixture.
const recordExpr = "/descendant::*/child::node()"

// TestQueryContextDeadline is the ISSUE's acceptance scenario: a 1ms
// deadline on a full-size XMark document kills the query in bounded time
// with the engine's typed error, which also satisfies the context-level
// check.
func TestQueryContextDeadline(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.1)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := db.QueryContext(ctx, doc, recordExpr)
	if err == nil {
		for res.Next() {
		}
		err = res.Err()
	}
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("1ms deadline on a full XMark doc: query finished without error")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v does not satisfy errors.Is(err, context.DeadlineExceeded)", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline enforcement took %v, want bounded time", elapsed)
	}
}

// TestQueryTimeoutOption checks the per-query wall-clock budget without
// any context deadline.
func TestQueryTimeoutOption(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.1)

	res, err := db.QueryContext(context.Background(), doc, recordExpr,
		WithTimeout(time.Millisecond))
	if err == nil {
		for res.Next() {
		}
		err = res.Err()
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", err)
	}
}

// TestCancelMidStream starts a streaming query, pulls a few results,
// cancels the context, and checks the iterator stops within one
// amortized check interval, with the canceled error at both levels.
func TestCancelMidStream(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.05)

	canceledBefore := obs.QueriesCanceled.Value()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := db.QueryContext(ctx, doc, heavyExpr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !res.Next() {
			t.Fatalf("query produced only %d results before cancel; need a bigger fixture", i)
		}
	}
	cancel()
	// The executor polls cancellation every 256 units of work (tuples
	// pulled or index entries scanned), so the stream must die well within
	// a few hundred further pulls.
	extra := 0
	for res.Next() {
		if extra++; extra > 1024 {
			t.Fatal("iterator still yielding 1024 results after cancel")
		}
	}
	err = res.Err()
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v does not satisfy errors.Is(err, context.Canceled)", err)
	}
	if got := obs.QueriesCanceled.Value() - canceledBefore; got != 1 {
		t.Errorf("QueriesCanceled advanced by %d, want 1", got)
	}
}

// TestPreCanceledContext checks that a context canceled before the call
// fails fast: no plan compiled, no index touched.
func TestPreCanceledContext(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)

	before := db.StorageMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := db.QueryContext(ctx, doc, "//person/address/city")
	if err == nil {
		res.Close()
		t.Fatal("pre-canceled context: QueryContext succeeded")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrCanceled / context.Canceled", err)
	}
	after := db.StorageMetrics()
	if d := after.Index.Seeks - before.Index.Seeks; d != 0 {
		t.Errorf("pre-canceled query performed %d index seeks, want 0", d)
	}
	if d := after.Pager.Reads - before.Pager.Reads; d != 0 {
		t.Errorf("pre-canceled query read %d pages, want 0", d)
	}
}

// TestBudgetMaxResults checks that exactly MaxResults results stream out
// and materializing the next one fails with the typed budget error.
func TestBudgetMaxResults(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)

	budgetBefore := obs.QueriesBudgetExceeded.Value()
	res, err := db.QueryContext(context.Background(), doc, "//person/address",
		WithMaxResults(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for res.Next() {
		n++
	}
	if n != 3 {
		t.Errorf("delivered %d results under WithMaxResults(3), want exactly 3", n)
	}
	err = res.Err()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v is not a *BudgetError", err)
	}
	if be.Budget != "results" || be.Limit != 3 || be.Used != 4 {
		t.Errorf("BudgetError = %+v, want {results 3 4}", be)
	}
	if got := obs.QueriesBudgetExceeded.Value() - budgetBefore; got != 1 {
		t.Errorf("QueriesBudgetExceeded advanced by %d, want 1", got)
	}
}

// TestBudgetMaxDecodedRecords trips the record-decode budget on a query
// whose filters must decode clustered records.
func TestBudgetMaxDecodedRecords(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)

	res, err := db.QueryContext(context.Background(), doc, recordExpr,
		WithMaxDecodedRecords(10))
	if err == nil {
		for res.Next() {
		}
		err = res.Err()
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a *BudgetError", err)
	}
	if be.Budget != "decoded-records" || be.Limit != 10 {
		t.Errorf("BudgetError = %+v, want budget decoded-records limit 10", be)
	}
}

// TestBudgetDecodedRecordsOnSiblingAxes checks the decoded-records budget
// counts what the store counts on the sibling axes. A sibling bind whose
// context kind the plan does not fix (here: contexts out of a node() step)
// probes the context's record for its kind — attributes have no siblings —
// and that probe used to bump the store's counter without charging the
// query, so MaxDecodedRecords under-counted exactly there. For each
// expression the query's own account must equal the store's delta, a
// budget of that many records must pass, and one record less must trip.
func TestBudgetDecodedRecordsOnSiblingAxes(t *testing.T) {
	db, err := Open(Options{SlowQueryThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	doc := loadAuction(t, db, 0.01)

	for _, expr := range []string{
		"//itemref/following-sibling::node()",              // kind fixed by the plan: no probe
		"//itemref/self::node()/following-sibling::node()", // kind probed per context
		"//price/self::node()/preceding-sibling::node()",
	} {
		before := db.StorageMetrics().RecordsDecoded
		want := drainCount(t, db, doc, expr)
		stored := db.StorageMetrics().RecordsDecoded - before
		if want == 0 || stored == 0 {
			t.Fatalf("%s: %d results, %d records decoded; the fixture must exercise both", expr, want, stored)
		}
		if sq := db.SlowQueries()[0]; sq.Expr != expr || sq.RecordsDecoded != stored {
			t.Errorf("%s: the query accounted %d decoded records (entry %q), the store counted %d",
				expr, sq.RecordsDecoded, sq.Expr, stored)
		}

		drain := func(limit uint64) (int, error) {
			res, err := db.QueryContext(context.Background(), doc, expr, WithMaxDecodedRecords(limit))
			if err != nil {
				return 0, err
			}
			n := 0
			for res.Next() {
				n++
			}
			return n, res.Err()
		}
		if n, err := drain(stored); err != nil || n != want {
			t.Errorf("%s under a budget of exactly %d records: %d results, err %v; want %d, nil", expr, stored, n, err, want)
		}
		_, err := drain(stored - 1)
		var be *BudgetError
		if !errors.As(err, &be) || be.Budget != "decoded-records" || be.Limit != stored-1 {
			t.Errorf("%s under a budget of %d records: err = %v, want a decoded-records *BudgetError", expr, stored-1, err)
		}
	}
}

// TestBudgetMaxPagesRead trips the page-read budget. Page charges happen
// only on loads no decoded frame serves, and in-memory stores never
// evict, so this needs a file-backed store whose page cache holds one
// page — the document's working set then cannot fit and the query must
// fault pages back in.
func TestBudgetMaxPagesRead(t *testing.T) {
	// A freshly loaded document's pages stay in memory until they are
	// durable, so the query runs on the reopened store: its frame cache
	// holds one page, and the query must read the rest from disk.
	opts := Options{Path: filepath.Join(t.TempDir(), "governed.vam"), CachePages: 1}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLString("auction",
		xmark.GenerateString(xmark.Config{Factor: 0.02, Seed: 51})); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.Document("auction")
	if err != nil {
		t.Fatal(err)
	}

	res, err := db.QueryContext(context.Background(), doc, heavyExpr,
		WithMaxPagesRead(2))
	if err == nil {
		for res.Next() {
		}
		err = res.Err()
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a *BudgetError", err)
	}
	if be.Budget != "pages-read" || be.Limit != 2 {
		t.Errorf("BudgetError = %+v, want budget pages-read limit 2", be)
	}
}

// TestDefaultLimits checks DB-level default budgets apply to every query
// and per-query options override them.
func TestDefaultLimits(t *testing.T) {
	db, err := Open(Options{DefaultLimits: Limits{MaxResults: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	doc := loadAuction(t, db, 0.01)

	// Default applies to the context-free path too.
	res, err := db.Query(doc, "//person/address")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for res.Next() {
		n++
	}
	if n != 2 || !errors.Is(res.Err(), ErrBudgetExceeded) {
		t.Errorf("DB default MaxResults=2: got %d results, err %v", n, res.Err())
	}

	// A per-query option overrides the default field.
	keys, err := func() ([]string, error) {
		r, err := db.QueryContext(context.Background(), doc, "//person/address",
			WithMaxResults(0))
		if err != nil {
			return nil, err
		}
		return r.Keys()
	}()
	if err != nil {
		t.Fatalf("WithMaxResults(0) override: %v", err)
	}
	if len(keys) <= 2 {
		t.Errorf("override delivered %d results, want more than the default cap", len(keys))
	}
}

// TestConcurrentMixedDeadlines runs governed and ungoverned queries
// concurrently: tight-deadline queries must die with the deadline error
// while generous ones finish with full results, uninfluenced.
func TestConcurrentMixedDeadlines(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.05)

	wantKeys, err := func() ([]string, error) {
		r, err := db.Query(doc, heavyExpr)
		if err != nil {
			return nil, err
		}
		return r.Keys()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(wantKeys) == 0 {
		t.Fatal("fixture produced no results")
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	counts := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var opts []QueryOption
			if i%2 == 1 {
				opts = append(opts, WithTimeout(time.Millisecond))
			}
			res, err := db.QueryContext(context.Background(), doc, heavyExpr, opts...)
			if err != nil {
				errs[i] = err
				return
			}
			for res.Next() {
				counts[i]++
			}
			errs[i] = res.Err()
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i += 2 {
		if errs[i] != nil {
			t.Errorf("generous query %d failed: %v", i, errs[i])
		}
		if counts[i] != len(wantKeys) {
			t.Errorf("generous query %d delivered %d results, want %d", i, counts[i], len(wantKeys))
		}
	}
	for i := 1; i < 8; i += 2 {
		if errs[i] != nil && !errors.Is(errs[i], ErrDeadlineExceeded) {
			t.Errorf("tight query %d failed with %v, want nil or ErrDeadlineExceeded", i, errs[i])
		}
	}
}

// TestErrorTaxonomy checks the non-governance members of the public error
// taxonomy: unknown documents and compile errors.
func TestErrorTaxonomy(t *testing.T) {
	db := openDB(t)

	if _, err := db.Document("nope"); !errors.Is(err, ErrNoSuchDocument) {
		t.Errorf("Document(nope) = %v, want ErrNoSuchDocument", err)
	}
	if err := db.Drop("nope"); !errors.Is(err, ErrNoSuchDocument) {
		t.Errorf("Drop(nope) = %v, want ErrNoSuchDocument", err)
	}

	_, err := db.Prepare("//person[", WithoutCache())
	if err == nil {
		t.Fatal("Compile of malformed expression succeeded")
	}
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("compile error %v does not unwrap to *SyntaxError", err)
	}
	if se.Expr != "//person[" || se.Pos <= 0 {
		t.Errorf("SyntaxError = %+v, want the offending expression and a real position", se)
	}
}

// TestResultsAll checks the range-over-func iterators: All yields the
// same nodes as the manual loop, surfaces the terminal error as its last
// pair, and closing is implicit and idempotent.
func TestResultsAll(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)

	wantKeys, err := func() ([]string, error) {
		r, err := db.Query(doc, "//person/address")
		if err != nil {
			return nil, err
		}
		return r.Keys()
	}()
	if err != nil {
		t.Fatal(err)
	}

	res, err := db.Query(doc, "//person/address")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for n, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, n.Key)
	}
	if len(got) != len(wantKeys) {
		t.Fatalf("All yielded %d nodes, want %d", len(got), len(wantKeys))
	}
	for i := range got {
		if got[i] != wantKeys[i] {
			t.Fatalf("All()[%d] = %q, want %q", i, got[i], wantKeys[i])
		}
	}
	// Exhausted and closed: both iteration styles now yield nothing.
	if res.Next() {
		t.Error("Next on a drained Results returned true")
	}
	for range res.All() {
		t.Error("All on a drained Results yielded")
	}
	if err := res.Close(); err != nil {
		t.Errorf("redundant Close: %v", err)
	}

	// A governance trip surfaces as the final yielded pair.
	res, err = db.QueryContext(context.Background(), doc, "//person/address",
		WithMaxResults(2))
	if err != nil {
		t.Fatal(err)
	}
	var last error
	n := 0
	for node, err := range res.All() {
		if err != nil {
			last = err
		} else {
			n++
			if node.Key == "" {
				t.Error("All yielded an empty node without error")
			}
		}
	}
	if n != 2 {
		t.Errorf("All delivered %d nodes under WithMaxResults(2), want 2", n)
	}
	var be *BudgetError
	if !errors.As(last, &be) {
		t.Errorf("All terminal pair err = %v, want *BudgetError", last)
	}

	// Early break closes the stream.
	res, err = db.Query(doc, "//person/address")
	if err != nil {
		t.Fatal(err)
	}
	for range res.AllKeys() {
		break
	}
	if res.Next() {
		t.Error("Next after breaking out of AllKeys returned true")
	}
}
