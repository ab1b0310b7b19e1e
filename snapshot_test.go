package vamana

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

const snapXML = `<lib><book id="1"><title>A</title></book><book id="2"><title>B</title></book></lib>`

// xmlOf serializes the document root through whatever store the handle
// is bound to (live or snapshot).
func xmlOf(t testing.TB, d *Document) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteXML("a", &buf); err != nil {
		t.Fatalf("WriteXML: %v", err)
	}
	return buf.String()
}

// TestSnapshotIsolation: a snapshot keeps serving the exact committed
// state it pinned — bytes, queries, statistics — while transactions
// commit underneath; a later snapshot sees the new state.
func TestSnapshotIsolation(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("lib", snapXML)
	if err != nil {
		t.Fatal(err)
	}
	before := xmlOf(t, doc)

	sn1, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn1.Close()
	sdoc1, err := sn1.Document("lib")
	if err != nil {
		t.Fatal(err)
	}

	// Commit a transaction on the live database.
	if err := db.Update(func(tx *Txn) error {
		k, err := tx.InsertElement(doc, "a", -1, "appendix")
		if err != nil {
			return err
		}
		_, err = tx.InsertText(doc, k, -1, "notes")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	after := xmlOf(t, doc)
	if before == after {
		t.Fatal("update did not change the document")
	}

	sn2, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn2.Close()
	if sn2.Epoch() <= sn1.Epoch() {
		t.Fatalf("epochs not increasing: %d then %d", sn1.Epoch(), sn2.Epoch())
	}

	// The old snapshot still serves the old bytes; the new one the new.
	if got := xmlOf(t, sdoc1); got != before {
		t.Fatalf("snapshot 1 drifted:\n got %q\nwant %q", got, before)
	}
	sdoc2, err := sn2.Document("lib")
	if err != nil {
		t.Fatal(err)
	}
	if got := xmlOf(t, sdoc2); got != after {
		t.Fatalf("snapshot 2 wrong:\n got %q\nwant %q", got, after)
	}

	// Queries through each snapshot see its version.
	res, err := db.Query(sdoc1, "//appendix")
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := res.Keys(); len(keys) != 0 {
		t.Fatalf("snapshot 1 sees the new element: %v", keys)
	}
	res, err = db.Query(sdoc2, "//appendix")
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := res.Keys(); len(keys) != 1 {
		t.Fatalf("snapshot 2 misses the new element: %v", keys)
	}
	// Statistics probes are pinned too.
	if n, err := sdoc1.CountName("appendix"); err != nil || n != 0 {
		t.Fatalf("snapshot 1 CountName = %d, %v", n, err)
	}
	if n, err := sdoc2.CountName("appendix"); err != nil || n != 1 {
		t.Fatalf("snapshot 2 CountName = %d, %v", n, err)
	}
	// Re-reads are stable.
	if got := xmlOf(t, sdoc1); got != before {
		t.Fatal("snapshot 1 unstable on re-read")
	}
	if u := sn1.Usage(); u.Queries == 0 {
		t.Fatalf("snapshot usage not folded: %+v", u)
	}
}

// TestSnapshotReadOnlyPublic: mutation through a snapshot-bound handle
// fails with the typed error; queries on a closed snapshot fail too.
func TestSnapshotReadOnlyPublic(t *testing.T) {
	db := openDB(t)
	if _, err := db.LoadXMLString("lib", snapXML); err != nil {
		t.Fatal(err)
	}
	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sdoc, err := sn.Document("lib")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Txn) error { _, err := tx.InsertElement(sdoc, "a", -1, "x"); return err }); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("InsertElement on snapshot: %v", err)
	}
	if err := db.Update(func(tx *Txn) error { return tx.DeleteSubtree(sdoc, "a.b") }); !errors.Is(err, ErrReadOnlySnapshot) {
		t.Fatalf("DeleteSubtree on snapshot: %v", err)
	}
	sn.Close()
	if _, err := db.Query(sdoc, "//book"); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("query on closed snapshot: %v", err)
	}
	if _, err := sdoc.CountName("book"); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("CountName on closed snapshot: %v", err)
	}
	if _, err := sn.Document("lib"); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("Document on closed snapshot: %v", err)
	}
}

// TestSnapshotExplainAnalyze: Explain and ExplainAnalyze on a
// snapshot-bound handle estimate and execute against the pinned
// version, as Run does, and refuse a closed snapshot.
func TestSnapshotExplainAnalyze(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("d", `<lib><book/></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sdoc, err := sn.Document("d")
	if err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, db, func(tx *Txn) error {
		_, err := tx.InsertElement(doc, "a.b", -1, "book")
		return err
	})
	q, err := db.Prepare("//book", WithDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background(), sdoc)
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := res.Keys(); err != nil || len(keys) != 1 {
		t.Fatalf("Run on snapshot = %d keys, %v; want 1", len(keys), err)
	}
	ex, err := q.Explain(sdoc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "OUT=1") || strings.Contains(ex, "OUT=2") {
		t.Errorf("Explain on snapshot estimated against another version:\n%s", ex)
	}
	an, err := q.ExplainAnalyze(sdoc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an, "results: 1\n") || !strings.Contains(an, "act OUT=1\n") || strings.Contains(an, "OUT=2") {
		t.Errorf("ExplainAnalyze on snapshot read another version:\n%s", an)
	}
	// The live handle sees the committed second book.
	if an, err := q.ExplainAnalyze(doc); err != nil || !strings.Contains(an, "act OUT=2\n") {
		t.Errorf("ExplainAnalyze on live handle = %v:\n%s", err, an)
	}
	sn.Close()
	if _, err := q.Explain(sdoc); !errors.Is(err, ErrSnapshotClosed) {
		t.Errorf("Explain on closed snapshot: %v", err)
	}
	if _, err := q.ExplainAnalyze(sdoc); !errors.Is(err, ErrSnapshotClosed) {
		t.Errorf("ExplainAnalyze on closed snapshot: %v", err)
	}
}

// TestUpdateTxnPublic: DB.Update commits atomically, rolls back on
// error, and the Txn is dead once the function returns.
func TestUpdateTxnPublic(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("lib", snapXML)
	if err != nil {
		t.Fatal(err)
	}
	base := xmlOf(t, doc)

	// Error from fn rolls everything back.
	boom := errors.New("boom")
	err = db.Update(func(tx *Txn) error {
		if _, err := tx.InsertElement(doc, "a", -1, "junk"); err != nil {
			return err
		}
		if err := tx.DeleteSubtree(doc, "a.b"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Update error = %v", err)
	}
	if got := xmlOf(t, doc); got != base {
		t.Fatalf("rollback left changes:\n got %q\nwant %q", got, base)
	}
	if n, _ := doc.CountName("junk"); n != 0 {
		t.Fatalf("rolled-back insert visible in statistics: %d", n)
	}

	// Panic from fn rolls back too and propagates.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_ = db.Update(func(tx *Txn) error {
			if _, err := tx.InsertElement(doc, "a", -1, "junk"); err != nil {
				return err
			}
			panic("kaboom")
		})
	}()
	if got := xmlOf(t, doc); got != base {
		t.Fatal("panicked transaction left changes")
	}

	// Successful transaction: visible atomically, usable after commit.
	var escaped *Txn
	err = db.Update(func(tx *Txn) error {
		escaped = tx
		k, err := tx.InsertElement(doc, "a", -1, "chapter")
		if err != nil {
			return err
		}
		if _, err := tx.InsertText(doc, k, -1, "body"); err != nil {
			return err
		}
		return tx.RenameElement(doc, k, "section")
	})
	if err != nil {
		t.Fatal(err)
	}
	got := xmlOf(t, doc)
	if !strings.Contains(got, "<section>body</section>") {
		t.Fatalf("commit lost changes: %q", got)
	}
	// The transaction handle is dead after Update returns.
	if _, err := escaped.InsertElement(doc, "a", -1, "late"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("escaped txn: %v", err)
	}
	// Queries on the live DB see the committed version (auto-snapshot).
	res, err := db.Query(doc, "//section")
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := res.Keys(); len(keys) != 1 {
		t.Fatalf("committed element not served: %v", keys)
	}
}

// TestDropBusyPublic: Drop refuses with ErrDocumentBusy while a
// snapshot or an in-flight result stream could still read the document.
func TestDropBusyPublic(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("lib", snapXML)
	if err != nil {
		t.Fatal(err)
	}

	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("lib"); !errors.Is(err, ErrDocumentBusy) {
		t.Fatalf("drop with open snapshot: %v", err)
	}
	res, err := db.Query(doc, "//book")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Next() {
		t.Fatal("no results")
	}
	sn.Close()
	if err := db.Drop("lib"); !errors.Is(err, ErrDocumentBusy) {
		t.Fatalf("drop with open stream: %v", err)
	}
	// A commit retires the version the stream pinned; the pin still
	// holds the document.
	if err := db.Update(func(tx *Txn) error {
		_, err := tx.InsertElement(doc, "a", -1, "extra")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("lib"); !errors.Is(err, ErrDocumentBusy) {
		t.Fatalf("drop with a stream on a retired version: %v", err)
	}
	res.Close()

	// Only the database's own hold on its current version remains: it
	// does not count as a reader.
	if err := db.Drop("lib"); err != nil {
		t.Fatalf("drop after release: %v", err)
	}
	if got := db.Documents(); len(got) != 0 {
		t.Fatalf("document survived drop: %v", got)
	}
}

// TestPrepareRunEquivalence: the consolidated Prepare/Run surface and
// the deprecated compile/execute methods produce identical results.
func TestPrepareRunEquivalence(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)
	ctx := context.Background()
	const expr = "//person/address"

	keysOf := func(r *Results, err error) []string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		keys, err := r.Keys()
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	same := func(a, b []string, label string) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: result %d differs: %q vs %q", label, i, a[i], b[i])
			}
		}
	}

	// Prepare through the plan cache == Prepare WithoutCache.
	qNew, err := db.Prepare(expr, WithDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	qOld, err := db.Prepare(expr, WithDocument(doc), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if !qNew.Optimized() || !qOld.Optimized() {
		t.Fatal("optimizer did not run")
	}
	same(keysOf(qNew.Run(ctx, doc)), keysOf(qOld.Run(ctx, doc)), "optimized run")

	// WithoutOptimization == the default plan built without a document.
	qPlain, err := db.Prepare(expr, WithoutOptimization())
	if err != nil {
		t.Fatal(err)
	}
	if qPlain.Optimized() {
		t.Fatal("WithoutOptimization still optimized")
	}
	qDep, err := db.Prepare(expr, WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	same(keysOf(qPlain.Run(ctx, doc)), keysOf(qDep.Run(ctx, doc)), "default plan")

	// Run(Ordered()) agrees across the cached and uncached plans.
	same(keysOf(qNew.Run(ctx, doc, Ordered())), keysOf(qOld.Run(ctx, doc, Ordered())), "ordered")

	// Run(From(first person)) == the absolute path to its address.
	qPeople, err := db.Prepare("/site/people/person", WithDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	people := keysOf(qPeople.Run(ctx, doc, Ordered()))
	if len(people) == 0 {
		t.Fatal("no people in fixture")
	}
	qRel, err := db.Prepare("address", WithDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	qAbs, err := db.Prepare("/site/people/person[1]/address", WithDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	same(
		keysOf(qRel.Run(ctx, doc, From(people[0], nil))),
		keysOf(qAbs.Run(ctx, doc)),
		"from",
	)

	// Prepare caches: a second Prepare for the same (doc, expr) hits.
	h0 := db.CacheStats().Hits
	if _, err := db.Prepare(expr, WithDocument(doc)); err != nil {
		t.Fatal(err)
	}
	if h1 := db.CacheStats().Hits; h1 <= h0 {
		t.Fatalf("Prepare did not hit the plan cache: %d -> %d", h0, h1)
	}
}

// TestMixedReadWriteRace is the concurrency battery: a writer toggles
// the document between two states through transactions while reader
// goroutines pin snapshots and assert every snapshot read is
// byte-identical to one of the two committed states — never a blend —
// and stable on re-read. Run under -race this exercises the MVCC layer,
// the shared auto-snapshot, refcounting, and group commit at once.
func TestMixedReadWriteRace(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("lib", snapXML)
	if err != nil {
		t.Fatal(err)
	}
	stateA := xmlOf(t, doc)

	// Build state B once to learn its bytes, then return to A. The
	// marker is always appended at the end, so B's serialization is
	// identical every time the writer re-creates it.
	var marker string
	mkB := func() error {
		return db.Update(func(tx *Txn) error {
			k, err := tx.InsertElement(doc, "a", -1, "marker")
			if err != nil {
				return err
			}
			if _, err := tx.InsertText(doc, k, -1, "v"); err != nil {
				return err
			}
			marker = k
			return nil
		})
	}
	mkA := func() error {
		return db.Update(func(tx *Txn) error { return tx.DeleteSubtree(doc, marker) })
	}
	if err := mkB(); err != nil {
		t.Fatal(err)
	}
	stateB := xmlOf(t, doc)
	if err := mkA(); err != nil {
		t.Fatal(err)
	}
	if stateA == stateB {
		t.Fatal("states not distinct")
	}

	const (
		readers    = 4
		iterations = 60
		writerLaps = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerLaps; i++ {
			if err := mkB(); err != nil {
				errc <- fmt.Errorf("writer mkB: %w", err)
				return
			}
			if err := mkA(); err != nil {
				errc <- fmt.Errorf("writer mkA: %w", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				sn, err := db.Snapshot()
				if err != nil {
					errc <- fmt.Errorf("reader %d snapshot: %w", r, err)
					return
				}
				sdoc, err := sn.Document("lib")
				if err != nil {
					sn.Close()
					errc <- fmt.Errorf("reader %d doc: %w", r, err)
					return
				}
				var buf bytes.Buffer
				if err := sdoc.WriteXML("a", &buf); err != nil {
					sn.Close()
					errc <- fmt.Errorf("reader %d serialize: %w", r, err)
					return
				}
				got := buf.String()
				if got != stateA && got != stateB {
					sn.Close()
					errc <- fmt.Errorf("reader %d: torn read:\n%q", r, got)
					return
				}
				// The snapshot's query agrees with its bytes, and a
				// re-read is identical — the pinned version cannot move.
				res, err := db.Query(sdoc, "//marker")
				if err != nil {
					sn.Close()
					errc <- fmt.Errorf("reader %d query: %w", r, err)
					return
				}
				keys, err := res.Keys()
				if err != nil {
					sn.Close()
					errc <- fmt.Errorf("reader %d drain: %w", r, err)
					return
				}
				wantMarkers := 0
				if got == stateB {
					wantMarkers = 1
				}
				if len(keys) != wantMarkers {
					sn.Close()
					errc <- fmt.Errorf("reader %d: %d markers for state with %d", r, len(keys), wantMarkers)
					return
				}
				buf.Reset()
				if err := sdoc.WriteXML("a", &buf); err != nil || buf.String() != got {
					sn.Close()
					errc <- fmt.Errorf("reader %d: snapshot drifted on re-read (err=%v)", r, err)
					return
				}
				// Interleave auto-snapshot reads on the live DB: they
				// must also never tear.
				live, err := db.Query(doc, "//book")
				if err != nil {
					sn.Close()
					errc <- fmt.Errorf("reader %d live query: %w", r, err)
					return
				}
				if bk, err := live.Keys(); err != nil || len(bk) != 2 {
					sn.Close()
					errc <- fmt.Errorf("reader %d live books = %d, %v", r, len(bk), err)
					return
				}
				sn.Close()
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// All snapshots are closed: dropping must succeed after the shared
	// auto-snapshot is released.
	if err := db.Drop("lib"); err != nil {
		t.Fatalf("drop after battery: %v", err)
	}
}

// TestSnapshotReadsReachStorageMetrics: a query served from a snapshot —
// one taken with DB.Snapshot, or the shared one every read uses while an
// Update is open — counts in DB.StorageMetrics, and releasing the
// snapshot neither loses nor repeats its counts. StorageMetrics calls
// racing snapshot readers are race-clean.
func TestSnapshotReadsReachStorageMetrics(t *testing.T) {
	db := openDB(t)
	doc, err := db.LoadXMLString("lib", snapXML)
	if err != nil {
		t.Fatal(err)
	}
	const expr = "//book/node()" // node() reads records
	loads := func(m StorageMetrics) uint64 { return m.Index.CacheHits + m.Index.CacheMisses }
	grew := func(what string, before StorageMetrics) StorageMetrics {
		t.Helper()
		after := db.StorageMetrics()
		if after.RecordsDecoded <= before.RecordsDecoded || loads(after) <= loads(before) {
			t.Errorf("%s: records decoded %d -> %d, node loads %d -> %d; want both to grow",
				what, before.RecordsDecoded, after.RecordsDecoded, loads(before), loads(after))
		}
		return after
	}

	sn, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sdoc, err := sn.Document("lib")
	if err != nil {
		t.Fatal(err)
	}
	before := db.StorageMetrics()
	if _, err := queryKeys(db, sdoc, expr); err != nil {
		t.Fatal(err)
	}
	open := grew("query through DB.Snapshot", before)
	sn.Close()
	if after := db.StorageMetrics(); after.RecordsDecoded != open.RecordsDecoded || loads(after) != loads(open) {
		t.Errorf("releasing the snapshot moved its counts: records %d -> %d, node loads %d -> %d",
			open.RecordsDecoded, after.RecordsDecoded, loads(open), loads(after))
	}

	before = db.StorageMetrics()
	if err := db.Update(func(*Txn) error {
		_, err := queryKeys(db, doc, expr)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	grew("query while an Update is open", before)

	sn, err = db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if sdoc, err = sn.Document("lib"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := queryKeys(db, sdoc, expr); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		db.StorageMetrics()
	}
	wg.Wait()
}
