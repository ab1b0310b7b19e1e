package serve

// Wire-level tests: the admission state machine's transitions observed
// through real HTTP — status codes, Retry-After, JSON error envelopes —
// plus the query endpoint's streaming protocol, tenant budget clamping,
// and plan-cache quotas.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vamana"
)

// newTestDB opens an in-memory DB with one small document.
func newTestDB(t *testing.T) *vamana.DB {
	t.Helper()
	return newLibDB(t, vamana.Options{})
}

// newLibDB opens a DB with opts and loads the "lib" document of twenty
// books into it.
func newLibDB(t *testing.T, opts vamana.Options) *vamana.DB {
	t.Helper()
	db, err := vamana.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var sb strings.Builder
	sb.WriteString("<lib>")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, "<book id=\"b%d\"><title>Title %d</title></book>", i, i)
	}
	sb.WriteString("</lib>")
	if _, err := db.LoadXMLString("lib", sb.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// newTestServer builds a Server over a fresh DB and an httptest server
// in front of it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = newTestDB(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get performs a query request with optional tenant and returns the
// response with its body read.
func get(t *testing.T, ts *httptest.Server, tenant, params string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/query?"+params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// decodeWireError parses the JSON error envelope.
func decodeWireError(t *testing.T, body string) wireError {
	t.Helper()
	var we wireError
	if err := json.Unmarshal([]byte(body), &we); err != nil {
		t.Fatalf("error body is not a JSON envelope: %v (%s)", err, body)
	}
	return we
}

func TestHTTPQueryStream(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{})

	resp, body := get(t, ts, "", "doc=lib&q=//title")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) != 21 { // 20 titles + terminal
		t.Fatalf("stream lines = %d, want 21:\n%s", len(lines), body)
	}
	var node struct {
		Key, Kind, Name, Value string
	}
	if err := json.Unmarshal([]byte(lines[0]), &node); err != nil {
		t.Fatalf("node line: %v (%s)", err, lines[0])
	}
	if node.Kind != "element" || node.Name != "title" {
		t.Fatalf("first node = %+v", node)
	}
	var term struct {
		Done  bool   `json:"done"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal([]byte(lines[20]), &term); err != nil || !term.Done || term.Count != 20 {
		t.Fatalf("terminal line = %s (%v)", lines[20], err)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{})

	for _, tc := range []struct {
		name, params string
		status       int
		code         ErrorCode
	}{
		{"no such document", "doc=nope&q=//a", http.StatusNotFound, CodeNoSuchDocument},
		{"syntax error", "doc=lib&q=//[[[", http.StatusBadRequest, CodeSyntax},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, ts, "", tc.params)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if we := decodeWireError(t, body); we.Code != tc.code {
				t.Fatalf("code = %q, want %q", we.Code, tc.code)
			}
		})
	}

	t.Run("missing params", func(t *testing.T) {
		resp, _ := get(t, ts, "", "doc=lib")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
	t.Run("bad method", func(t *testing.T) {
		resp, err := ts.Client().Head(ts.URL + "/v1/query?doc=lib&q=//a")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
}

// TestHTTPAdmissionOnTheWire drives the queue-full and queue-timeout
// rejections through real HTTP and asserts status, Retry-After, and
// envelope fields.
func TestHTTPAdmissionOnTheWire(t *testing.T) {
	checkGoroutines(t)

	// release blocks admitted requests so the test controls the
	// admission state deterministically.
	release := make(chan struct{})
	admitted := make(chan string, 16)
	var once sync.Once
	defer once.Do(func() { close(release) })

	s, ts := newTestServer(t, Config{
		MaxInflight: 1,
		QueueDepth:  1,
		QueueWait:   100 * time.Millisecond,
		Hooks: Hooks{PostAdmit: func(tenant string) {
			admitted <- tenant
			<-release
		}},
	})

	// Occupy the single in-flight slot.
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := get(t, ts, "", "doc=lib&q=//title")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held request status = %d", resp.StatusCode)
		}
	}()
	<-admitted

	// Fill the one queue slot with a second request; with the holder
	// pinned it will time out at QueueWait — the queue-timeout case.
	timeoutDone := make(chan wireError, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := get(t, ts, "", "doc=lib&q=//title")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("queued request status = %d, want 429 (%s)", resp.StatusCode, body)
		}
		timeoutDone <- decodeWireError(t, body)
	}()
	waitQueued(t, s.adm, 1)

	t.Run("queue-full is 429 with Retry-After", func(t *testing.T) {
		resp, body := get(t, ts, "", "doc=lib&q=//title")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d (%s)", resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
			t.Fatalf("Retry-After = %q", ra)
		}
		we := decodeWireError(t, body)
		if we.Code != CodeOverloaded || we.Reason != string(RejectQueueFull) {
			t.Fatalf("envelope = %+v", we)
		}
		if we.RetryAfterMS <= 0 {
			t.Fatalf("retry_after_ms = %d", we.RetryAfterMS)
		}
	})

	t.Run("queue-timeout is 429", func(t *testing.T) {
		we := <-timeoutDone
		if we.Code != CodeOverloaded || we.Reason != string(RejectQueueTimeout) {
			t.Fatalf("envelope = %+v", we)
		}
	})

	once.Do(func() { close(release) })
}

// TestHTTPTenantBusyOnTheWire asserts a per-tenant budget trip maps to
// 429 with the tenant named in the envelope while other tenants keep
// being served.
func TestHTTPTenantBusyOnTheWire(t *testing.T) {
	checkGoroutines(t)

	release := make(chan struct{})
	admitted := make(chan string, 16)

	_, ts := newTestServer(t, Config{
		MaxInflight: 8,
		Tenants: map[string]TenantConfig{
			"capped": {MaxInflight: 1},
		},
		Hooks: Hooks{PostAdmit: func(tenant string) {
			if tenant == "capped" {
				admitted <- tenant
				<-release
			}
		}},
	})

	var wg sync.WaitGroup
	defer wg.Wait()      // runs second: holder exits once released
	defer close(release) // runs first: unpin the holder
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := get(t, ts, "capped", "doc=lib&q=//title")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("capped holder status = %d", resp.StatusCode)
		}
	}()
	<-admitted

	resp, body := get(t, ts, "capped", "doc=lib&q=//title")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	we := decodeWireError(t, body)
	if we.Code != CodeOverloaded || we.Reason != string(RejectTenantBusy) || we.Tenant != "capped" {
		t.Fatalf("envelope = %+v", we)
	}

	// An uncapped tenant sails through while capped is pinned.
	resp, body = get(t, ts, "other", "doc=lib&q=//title")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d (%s)", resp.StatusCode, body)
	}
}

func TestHTTPDrainingStatus(t *testing.T) {
	checkGoroutines(t)
	s, ts := newTestServer(t, Config{})

	resp, _ := get(t, ts, "", "doc=lib&q=//title")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain status = %d", resp.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz pre-drain = %d", hresp.StatusCode)
	}

	s.adm.drain()

	resp, body := get(t, ts, "", "doc=lib&q=//title")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503 (%s)", resp.StatusCode, body)
	}
	we := decodeWireError(t, body)
	if we.Code != CodeDraining || we.Reason != string(RejectDraining) {
		t.Fatalf("envelope = %+v", we)
	}
	hresp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz draining = %d, want 503", hresp.StatusCode)
	}
}

func TestHTTPTenantLimitsClamped(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{
		Tenants: map[string]TenantConfig{
			"small": {Limits: vamana.Limits{MaxResults: 5}},
		},
	})

	// The tenant ceiling truncates the stream via the engine's budget.
	resp, body := get(t, ts, "small", "doc=lib&q=//title")
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	if got := strings.Count(body, `"kind"`); got > 5 {
		t.Fatalf("tenant ceiling leaked: %d result lines (%s)", got, body)
	}
	// An explicit tighter request budget still applies.
	resp, body = get(t, ts, "small", "doc=lib&q=//title&max_results=2")
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	if got := strings.Count(body, `"kind"`); got > 2 {
		t.Fatalf("request budget ignored: %d result lines", got)
	}
	// The default tenant is unclamped.
	_, body = get(t, ts, "", "doc=lib&q=//title")
	if got := strings.Count(body, `"kind"`); got != 20 {
		t.Fatalf("default tenant rows = %d, want 20", got)
	}
}

func TestHTTPPlanQuota(t *testing.T) {
	checkGoroutines(t)
	// Every run is slow, so each request leaves one record in the ring.
	db := newLibDB(t, vamana.Options{SlowQueryThreshold: time.Nanosecond})
	s, ts := newTestServer(t, Config{
		DB:                   db,
		SlowRequestThreshold: time.Nanosecond,
		Tenants: map[string]TenantConfig{
			"quota": {PlanQuota: 2},
		},
	})

	exprs := []string{"//title", "//book", "//book/title", "//lib"}
	for i, e := range exprs {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/query?doc=lib&q="+e, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, "quota")
		req.Header.Set(RequestHeader, fmt.Sprintf("quota-%d", i))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", e, resp.StatusCode)
		}
	}
	st := s.Stats()
	ten, ok := st.Tenants["quota"]
	if !ok {
		t.Fatalf("tenant missing from stats: %+v", st)
	}
	if ten.PlansCached != 2 {
		t.Fatalf("plans cached = %d, want 2", ten.PlansCached)
	}

	// The last request was over quota and ran a throwaway prepared plan;
	// its one record still carries the joined engine record's storage
	// deltas (in-memory index traversal always hits the node cache).
	const id = "quota-3"
	var recs []*vamana.QueryTrace
	waitFor(t, "the over-quota request's record", func() bool {
		recs = recs[:0]
		for _, tr := range db.RecentTraces() {
			if tr.Request == id {
				recs = append(recs, tr)
			}
		}
		return len(recs) > 0
	})
	if len(recs) != 1 {
		t.Fatalf("ring holds %d records for the request, want 1: %+v", len(recs), recs)
	}
	if rec := recs[0]; rec.Results != 1 || rec.NodeCacheHits == 0 {
		t.Fatalf("over-quota record = results %d cachehits %d; want 1 result and the engine's storage deltas",
			rec.Results, rec.NodeCacheHits)
	}
}

// TestHTTPOrderedCached: ordered=1 on the cached serving path delivers
// a reverse-axis result in document order.
func TestHTTPOrderedCached(t *testing.T) {
	checkGoroutines(t)
	db := newTestDB(t)
	_, ts := newTestServer(t, Config{DB: db})
	doc, err := db.Document("lib")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range []string{"/lib", "/lib/book[1]"} {
		res, err := db.Query(doc, e)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := res.Keys()
		if err != nil || len(keys) != 1 {
			t.Fatalf("%s: %v, %v", e, keys, err)
		}
		want = append(want, keys[0])
	}
	resp, body := get(t, ts, "", "doc=lib&ordered=1&q=/lib/book[1]/title/ancestor::*")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	var got []string
	for _, l := range lines[:len(lines)-1] {
		var node struct{ Key string }
		if err := json.Unmarshal([]byte(l), &node); err != nil {
			t.Fatalf("node line: %v (%s)", err, l)
		}
		got = append(got, node.Key)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ordered=1 keys = %v, want document order %v", got, want)
	}
}

func TestHTTPStatsAndDocs(t *testing.T) {
	checkGoroutines(t)
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/docs")
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(docs) != 1 || docs[0] != "lib" {
		t.Fatalf("docs = %v", docs)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.MaxInflight != 64 || st.Draining {
		t.Fatalf("stats = %+v", st)
	}

	// Debug endpoints are mounted.
	resp, err = ts.Client().Get(ts.URL + "/debug/vamana/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug metrics status = %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
}
