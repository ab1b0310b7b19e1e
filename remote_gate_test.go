package vamana_test

// TestRemoteOverheadGate bounds the serving daemon's tax: the
// client-observed p95 latency of the cached paper query Q1 over real
// HTTP (vamanad's handler on a loopback listener) may exceed the
// in-process p95 of the same query on the same database by at most a
// fixed absolute amount. The difference is everything the daemon adds —
// admission bookkeeping, tenant resolution, NDJSON encoding, HTTP framing
// and a loopback round trip — and catches regressions anywhere in that
// stack. It is bounded absolutely, not as a ratio: the tax is roughly
// constant per request, so a ratio would tighten every time the engine
// itself got faster.
//
// Methodology matches the repo's other perf gates: paired interleaved
// rounds (in-process and remote alternate within each round, so machine
// noise hits both sides equally), best-of-rounds p95 per side, several
// attempts so only a persistent regression fails. External test package:
// internal/serve imports vamana, so an in-package test would cycle.
//
// Skipped unless VAMANA_REMOTE_GATE is set — scripts/check.sh runs it.
// Gates jitter around ±7% on shared hardware; re-run a failing gate
// alone before calling it a regression.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"vamana"
	"vamana/internal/serve"
	"vamana/internal/xmark"
)

func TestRemoteOverheadGate(t *testing.T) {
	if os.Getenv("VAMANA_REMOTE_GATE") == "" {
		t.Skip("set VAMANA_REMOTE_GATE=1 to run the remote overhead gate")
	}
	const (
		q1              = "//person/address" // the paper's Q1
		queriesPerRound = 120
		rounds          = 3
		attempts        = 4
		maxTax          = 550 * time.Microsecond
	)

	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("auction",
		xmark.GenerateString(xmark.Config{Factor: 0.02, Seed: 51}))
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	remoteURL := ts.URL + "/v1/query?doc=auction&q=" + q1

	// Warm both paths: plan cache, probe memo, HTTP connection.
	drainInProcess := func() {
		res, err := db.QueryContext(context.Background(), doc, q1)
		if err != nil {
			t.Fatal(err)
		}
		for res.Next() {
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
	}
	drainRemote := func() {
		resp, err := client.Get(remoteURL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("remote status = %d", resp.StatusCode)
		}
	}
	for i := 0; i < 5; i++ {
		drainInProcess()
		drainRemote()
	}

	p95 := func(lats []time.Duration) time.Duration {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)*95/100]
	}
	// One paired round: alternate the two paths query by query so any
	// machine-noise burst lands on both sides.
	measureRound := func() (inProc, remote time.Duration) {
		in := make([]time.Duration, 0, queriesPerRound)
		rem := make([]time.Duration, 0, queriesPerRound)
		for i := 0; i < queriesPerRound; i++ {
			begin := time.Now()
			drainInProcess()
			in = append(in, time.Since(begin))
			begin = time.Now()
			drainRemote()
			rem = append(rem, time.Since(begin))
		}
		return p95(in), p95(rem)
	}

	var lastMsg string
	for attempt := 0; attempt < attempts; attempt++ {
		inBest, remBest := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < rounds; r++ {
			in, rem := measureRound()
			if in < inBest {
				inBest = in
			}
			if rem < remBest {
				remBest = rem
			}
		}
		tax := remBest - inBest
		lastMsg = fmt.Sprintf("cached Q1 p95 in-process=%v remote=%v tax=%v (bound %v)",
			inBest, remBest, tax, maxTax)
		t.Log(lastMsg)
		if tax <= maxTax {
			return
		}
	}
	t.Fatalf("remote serving overhead exceeded bound after %d attempts: %s", attempts, lastMsg)
}
