package vamana

// The live introspection server: /debug/vamana/* JSON endpoints over one
// database, for operators with curl and dashboards that want rates, not
// lifetime totals. Mounted by DebugHandler; cmd/vamana's -metrics-addr
// serves it alongside the Prometheus exposition.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"vamana/internal/obs"
)

// debugRateWindow is the sliding window over which /debug/vamana/metrics
// reports counter rates.
const debugRateWindow = time.Minute

// DebugHandler returns an HTTP handler serving the database's live
// introspection endpoints under the given prefix (conventionally
// "/debug/vamana"):
//
//	<prefix>/metrics    counters, quantiles, and per-second rates over
//	                    the last minute (JSON)
//	<prefix>/slow       the slow-query ring, most recent first
//	<prefix>/traces     the flight recorder; ?format=chrome for Chrome
//	                    trace-event JSON, ?format=text for span trees,
//	                    JSON otherwise; ?n=N limits the count
//	<prefix>/plancache  plan-cache and statistics-memo counters
//	<prefix>/docs       loaded documents with node statistics
//	<prefix>/cost       cost-model observatory: per-class q-error
//	                    profiles and worst offenders; ?format=text for
//	                    the aligned table, JSON otherwise
//	<prefix>/           index page linking every endpoint
//
// The stdlib net/http/pprof handlers are mounted at /debug/pprof/*
// (their conventional path, independent of prefix), so a live server
// can be CPU- and heap-profiled with `go tool pprof` without a restart.
//
// The Prometheus text exposition stays on MetricsHandler; these
// endpoints are JSON for tools and humans, not scrapers. The handler is
// safe for concurrent use and holds no locks between requests.
func (db *DB) DebugHandler(prefix string) http.Handler {
	rates := obs.NewRateWindow(debugRateWindow, func() map[string]uint64 {
		s := obs.Snapshot()
		m := db.StorageMetrics()
		s["vamana_pager_page_reads_total"] = m.Pager.Reads
		s["vamana_pager_page_writes_total"] = m.Pager.Writes
		s["vamana_btree_cache_hits_total"] = m.Index.CacheHits
		s["vamana_btree_cache_misses_total"] = m.Index.CacheMisses
		s["vamana_mass_records_decoded_total"] = m.RecordsDecoded
		return s
	})
	mux := http.NewServeMux()
	mux.HandleFunc(prefix+"/metrics", func(w http.ResponseWriter, r *http.Request) {
		counters := obs.Snapshot()
		perSec, window := rates.Rates()
		writeJSON(w, map[string]any{
			"counters":       counters,
			"storage":        db.StorageMetrics(),
			"rates_per_sec":  perSec,
			"rate_window_ns": window.Nanoseconds(),
		})
	})
	mux.HandleFunc(prefix+"/slow", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, db.SlowQueries())
	})
	mux.HandleFunc(prefix+"/traces", func(w http.ResponseWriter, r *http.Request) {
		traces := obs.Filter(db.RecentTraces(), func(t *QueryTrace) bool { return t.Root != nil })
		if n, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && n >= 0 && n < len(traces) {
			traces = traces[:n]
		}
		switch r.URL.Query().Get("format") {
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			_ = obs.WriteChromeTrace(w, traces)
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, t := range traces {
				_ = t.WriteTree(w)
			}
		default:
			writeJSON(w, traces)
		}
	})
	mux.HandleFunc(prefix+"/plancache", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, db.CacheStats())
	})
	mux.HandleFunc(prefix+"/cost", func(w http.ResponseWriter, r *http.Request) {
		p := db.CostProfile()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			p.WriteText(w)
			return
		}
		writeJSON(w, p)
	})
	// Debug index: one page linking every endpoint, including the pprof
	// profiles below.
	mux.HandleFunc(prefix+"/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != prefix+"/" && r.URL.Path != prefix {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<html><head><title>vamana debug</title></head><body><h1>vamana debug</h1><ul>")
		for _, ep := range []struct{ path, desc string }{
			{prefix + "/metrics", "counters, quantiles, per-second rates (JSON)"},
			{prefix + "/slow", "slow queries, most recent first"},
			{prefix + "/traces", "records with span trees (?format=chrome|text)"},
			{prefix + "/plancache", "plan-cache and statistics-memo counters"},
			{prefix + "/docs", "loaded documents with node statistics"},
			{prefix + "/cost", "cost-model observatory (?format=text)"},
			{"/debug/pprof/", "runtime profiles (CPU, heap, goroutines, ...)"},
		} {
			fmt.Fprintf(w, "<li><a href=%q>%s</a> — %s</li>", ep.path, ep.path, ep.desc)
		}
		fmt.Fprint(w, "</ul></body></html>")
	})
	// Live profiling: the stdlib pprof handlers at their conventional
	// path, so `go tool pprof http://host/debug/pprof/profile` works
	// against any server that mounted DebugHandler.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc(prefix+"/docs", func(w http.ResponseWriter, r *http.Request) {
		type docEntry struct {
			Name     string `json:"name"`
			Nodes    uint64 `json:"nodes"`
			Elements uint64 `json:"elements"`
			Texts    uint64 `json:"texts"`
		}
		var out []docEntry
		for _, name := range db.Documents() {
			e := docEntry{Name: name}
			if d, err := db.Document(name); err == nil {
				if st, err := d.Stats(); err == nil {
					e.Nodes, e.Elements, e.Texts = st.Nodes, st.Elements, st.Texts
				}
			}
			out = append(out, e)
		}
		writeJSON(w, out)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
