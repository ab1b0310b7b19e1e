package serve

// The server-grade battery: many tenants hammering the daemon over real
// HTTP while a writer commits transactions underneath. Run under -race
// by scripts/check.sh. Asserts three properties end to end:
//
//   - every response is either a complete, byte-identical copy of the
//     in-process execution of the same query, or a typed admission
//     rejection — never a torn stream, never a hang;
//   - per-tenant accounting holds (rejections land on the tenant that
//     overflowed, not on its neighbors);
//   - no goroutine outlives the battery (checkGoroutines).
//
// Byte-identity is decidable because the writer only mutates a scratch
// document: queries against the static document must see exactly the
// same bytes whether or not a transaction is mid-commit, which is the
// MVCC auto-snapshot guarantee carried through the serving layer.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vamana"
)

// expectedStream renders the exact NDJSON bytes the daemon must produce
// for expr, using the same encoder the handler uses.
func expectedStream(t *testing.T, db *vamana.DB, doc *vamana.Document, expr string) []byte {
	t.Helper()
	res, err := db.QueryContext(context.Background(), doc, expr)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var buf bytes.Buffer
	var count uint64
	for res.Next() {
		n, err := res.Node()
		if err != nil {
			t.Fatal(err)
		}
		if err := encodeNode(&buf, n); err != nil {
			t.Fatal(err)
		}
		count++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if err := encodeDone(&buf, count); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeNode writes one result node as a single NDJSON line, as the
// handler encodes it.
func encodeNode(w io.Writer, n vamana.Node) error {
	_, err := w.Write(appendNode(nil, n))
	return err
}

// encodeDone writes the success terminal line, as the handler encodes it.
func encodeDone(w io.Writer, count uint64) error {
	_, err := w.Write(appendDone(nil, count))
	return err
}

func TestServerBatteryConcurrentTenantsVsWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("battery test skipped in -short mode")
	}
	checkGoroutines(t)

	db := newTestDB(t)
	scratch, err := db.LoadXMLString("scratch", "<pad><row/></pad>")
	if err != nil {
		t.Fatal(err)
	}
	staticDoc, err := db.Document("lib")
	if err != nil {
		t.Fatal(err)
	}

	exprs := []string{
		"//title",
		"//book",
		"/lib/book/title",
		"//book[title='Title 3']",
	}
	want := make(map[string][]byte, len(exprs))
	for _, e := range exprs {
		want[e] = expectedStream(t, db, staticDoc, e)
	}

	s, ts := newTestServer(t, Config{
		DB:          db,
		MaxInflight: 8,
		QueueDepth:  64,
		QueueWait:   5 * time.Second,
		Tenants: map[string]TenantConfig{
			"capped": {MaxInflight: 2},
		},
	})

	// Committing writer: insert and delete rows in the scratch document
	// so every commit churns pages, versions, and the shared snapshot
	// without changing any query's correct answer.
	stopWriter := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		var keys []string
		var commits int
		for {
			select {
			case <-stopWriter:
				writerDone <- nil
				return
			default:
			}
			err := db.Update(func(tx *vamana.Txn) error {
				root, err := queryRoot(db, scratch)
				if err != nil {
					return err
				}
				k, err := tx.InsertElement(scratch, root, -1, "row")
				if err != nil {
					return err
				}
				keys = append(keys, k)
				if len(keys) > 8 {
					if err := tx.DeleteSubtree(scratch, keys[0]); err != nil {
						return err
					}
					keys = keys[1:]
				}
				return nil
			})
			if err != nil {
				writerDone <- fmt.Errorf("writer commit %d: %w", commits, err)
				return
			}
			commits++
		}
	}()

	const (
		tenants   = 4
		perTenant = 3
		rounds    = 25
	)
	var rejected, served atomic.Int64
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		tenantName := fmt.Sprintf("tenant-%d", ti)
		if ti == 0 {
			tenantName = "capped"
		}
		for c := 0; c < perTenant; c++ {
			wg.Add(1)
			go func(tenant string, worker int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					expr := exprs[(worker+r)%len(exprs)]
					resp, body := get(t, ts, tenant,
						url.Values{"doc": {"lib"}, "q": {expr}}.Encode())
					switch resp.StatusCode {
					case http.StatusOK:
						if !bytes.Equal([]byte(body), want[expr]) {
							t.Errorf("tenant %s round %d: stream for %s diverged from in-process bytes\nwant %d bytes, got %d:\n%.200s",
								tenant, r, expr, len(want[expr]), len(body), body)
							return
						}
						served.Add(1)
					case http.StatusTooManyRequests:
						we := decodeWireError(t, body)
						if we.Tenant != tenant {
							t.Errorf("rejection billed to %q, request was %q", we.Tenant, tenant)
						}
						rejected.Add(1)
					default:
						t.Errorf("tenant %s: unexpected status %d (%s)", tenant, resp.StatusCode, body)
						return
					}
				}
			}(tenantName, ti*perTenant+c)
		}
	}
	wg.Wait()
	close(stopWriter)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	if served.Load() == 0 {
		t.Fatal("battery served zero successful streams")
	}
	t.Logf("battery: %d streams byte-verified, %d typed rejections", served.Load(), rejected.Load())

	// Nothing may be left in flight or queued.
	if inflight, queued, _ := s.adm.stats(); inflight != 0 || queued != 0 {
		t.Fatalf("post-battery admission state = %d inflight, %d queued", inflight, queued)
	}

	// The scratch document is still consistent after the writer's churn.
	res, err := db.Query(scratch, "//row")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("scratch document lost its rows")
	}
}

// queryRoot returns the FLEX key of the scratch document's root element.
func queryRoot(db *vamana.DB, doc *vamana.Document) (string, error) {
	res, err := db.Query(doc, "/pad")
	if err != nil {
		return "", err
	}
	keys, err := res.Keys()
	if err != nil {
		return "", err
	}
	if len(keys) != 1 {
		return "", fmt.Errorf("scratch root: %d matches", len(keys))
	}
	return keys[0], nil
}

// TestServerStreamsSeeCommittedStateOnly pins one committed version's
// bytes: a stream started before a commit must not mix versions, and a
// stream started after must see the new version. Uses the scratch-free
// static document plus a mutable one.
func TestServerStreamsSeeCommittedStateOnly(t *testing.T) {
	checkGoroutines(t)
	db := newTestDB(t)
	mut, err := db.LoadXMLString("mut", "<m><v>one</v></m>")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{DB: db})

	before, _ := get(t, ts, "", "doc=mut&q=//v")
	if before.StatusCode != http.StatusOK {
		t.Fatalf("pre-commit status = %d", before.StatusCode)
	}

	if err := db.Update(func(tx *vamana.Txn) error {
		res, err := db.Query(mut, "/m")
		if err != nil {
			return err
		}
		keys, err := res.Keys()
		if err != nil {
			return err
		}
		k, err := tx.InsertElement(mut, keys[0], -1, "v")
		if err != nil {
			return err
		}
		if _, err := tx.InsertText(mut, k, -1, "two"); err != nil {
			return err
		}
		// Mid-transaction, the wire must still serve the committed
		// single-v version.
		resp, body := get(t, ts, "", "doc=mut&q=//v")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("mid-txn status = %d", resp.StatusCode)
		}
		if got := strings.Count(body, `"kind"`); got != 1 {
			t.Errorf("mid-txn stream rows = %d, want 1 (dirty read on the wire)\n%s", got, body)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts, "", "doc=mut&q=//v")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-commit status = %d", resp.StatusCode)
	}
	if got := strings.Count(body, `"kind"`); got != 2 {
		t.Fatalf("post-commit stream rows = %d, want 2\n%s", got, body)
	}
}
