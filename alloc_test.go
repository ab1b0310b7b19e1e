package vamana

import (
	"context"
	"testing"
	"time"
)

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops pooled run state at random and so makes per-query
// allocation counts noisy.
var raceEnabled bool

// TestFeatureAllocPins is the deterministic half of the engine's
// overhead budgets: a feature that every warm query passes through must
// add no allocations to the cache-hit path, and a warm prepared Query.Run
// allocates exactly what a warm cache-hit DB.Query does. How much time a feature
// costs is the benchmark's to report (benchmark/, paired against the
// parent commit); an allocation count is exact, so it is pinned here.
// The cost observatory's fold has its own pin in internal/core
// (TestCostFoldAllocFree), since it cannot be switched off to compare.
func TestFeatureAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const expr = "//person/address" // the paper's Q1
	open := func(opts Options) (*DB, *Document) {
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		doc := loadAuction(t, db, 0.002)
		for _, e := range workloadExprs {
			drainCount(t, db, doc, e)
		}
		return db, doc
	}
	plainDB, plainDoc := open(Options{})
	plain := func() (*Results, error) { return plainDB.Query(plainDoc, expr) }

	// Sampling configured but never firing: the hot path takes the
	// trace-aware branches on every query yet records no span.
	unsampledDB, unsampledDoc := open(Options{TraceEvery: 1 << 30})
	// A slow-query threshold no query meets: every run is accounted.
	slowDB, slowDoc := open(Options{SlowQueryThreshold: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	governed := []QueryOption{WithMaxResults(1 << 40), WithMaxPagesRead(1 << 40), WithMaxDecodedRecords(1 << 40)}
	// A prepared run enters the query path after the compile: it must
	// count as the cache hit it is, or it would carry a trace record.
	prepared, err := plainDB.Prepare(expr, WithDocument(plainDoc))
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		run  func() (*Results, error)
	}{
		{"unsampled tracing", func() (*Results, error) { return unsampledDB.Query(unsampledDoc, expr) }},
		{"unmet slow threshold", func() (*Results, error) { return slowDB.Query(slowDoc, expr) }},
		{"governed query", func() (*Results, error) { return plainDB.QueryContext(ctx, plainDoc, expr, governed...) }},
		{"prepared Run", func() (*Results, error) { return prepared.Run(ctx, plainDoc) }},
	} {
		base, with := queryAllocs(t, plain), queryAllocs(t, c.run)
		t.Logf("%s: %.1f allocs/query, plain %.1f", c.name, with, base)
		if with != base {
			t.Errorf("%s allocates %.1f/query on the warm path, a plain cache-hit DB.Query %.1f", c.name, with, base)
		}
	}
}

// queryAllocs is the average allocation count of one drained run.
func queryAllocs(t *testing.T, run func() (*Results, error)) float64 {
	t.Helper()
	return testing.AllocsPerRun(50, func() {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for res.Next() {
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestResultNodeAllocPin pins the result fetch path: a warm Q1 drain that
// materializes every result with Results.Node allocates exactly what the
// same drain through Next alone does. The run's fetcher reads element
// results in place and reuses their names, so an element costs nothing.
func TestResultNodeAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	db := openDB(t)
	doc := loadAuction(t, db, 0.002)
	const expr = "//person/address" // the paper's Q1
	drain := func(nodes bool) func() {
		return func() {
			res, err := db.Query(doc, expr)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for res.Next() {
				if nodes {
					if _, err := res.Node(); err != nil {
						t.Fatal(err)
					}
				}
				n++
			}
			if err := res.Err(); err != nil || n == 0 {
				t.Fatalf("drain: %d results, err %v", n, err)
			}
		}
	}
	drain(true)()
	keys := testing.AllocsPerRun(50, drain(false))
	nodes := testing.AllocsPerRun(50, drain(true))
	t.Logf("warm Q1 drain: %.1f allocs through Next, %.1f with Results.Node", keys, nodes)
	if nodes != keys {
		t.Errorf("a warm Q1 drain allocates %.1f with Results.Node on every result, %.1f through Next alone", nodes, keys)
	}
}
