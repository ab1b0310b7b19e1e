//go:build !race

package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"

	"vamana"
	"vamana/internal/xmark"
)

// discardResponse is a ResponseWriter that keeps nothing of the body, so
// a measurement of the handler's allocations is not one of a recorder's.
type discardResponse struct {
	h      http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(code int)        { d.status = code }
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestHandlerRequestBytes pins what a warm /v1/query request allocates
// in the handler: the stream's 32 KiB writer and its line scratch come
// from a pool, so a request's garbage is the request's own bookkeeping,
// not its buffers. Measured over 200 requests of the paper's Q1 with
// runtime.MemStats.TotalAlloc; the race detector's pools drop entries at
// random, so the file is built without it.
func TestHandlerRequestBytes(t *testing.T) {
	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadXMLString("auction", xmark.GenerateString(xmark.Config{Factor: 0.002, Seed: 51})); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	target := "/v1/query?doc=auction&q=" + url.QueryEscape("//person/address")
	const warm, requests = 50, 200
	reqs := make([]*http.Request, warm+requests)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, target, nil)
	}
	w := &discardResponse{h: http.Header{}}
	serve := func(r *http.Request) {
		w.status, w.n = 0, 0
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK || w.n == 0 {
			t.Fatalf("request: status %d, %d body bytes", w.status, w.n)
		}
	}
	for _, r := range reqs[:warm] {
		serve(r)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, r := range reqs[warm:] {
		serve(r)
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / requests
	t.Logf("warm handler request: %.0f B allocated, %.1f allocations", perReq, float64(after.Mallocs-before.Mallocs)/requests)
	if perReq >= 16<<10 {
		t.Errorf("a warm handler request allocates %.0f B, want < 16 KiB", perReq)
	}
}
