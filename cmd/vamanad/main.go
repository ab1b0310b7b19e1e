// Command vamanad is the VAMANA serving daemon: one engine process
// serving a catalog of documents to many tenants over HTTP, with
// admission control in front of execution and graceful drain on
// SIGTERM/SIGINT.
//
//	vamanad -xmark 0.02 -addr :8372
//	vamanad -load catalog=catalog.xml -load orders=orders.xml \
//	        -max-inflight 32 -queue-depth 256 -queue-wait 500ms \
//	        -tenants tenants.json
//
// Endpoints:
//
//	GET /v1/query?doc=<name>&q=<xpath>        NDJSON result stream
//	GET /v1/docs                              loaded document names
//	GET /v1/stats                             admission + tenant state
//	GET /healthz                              200, or 503 while draining
//	GET /metrics                              Prometheus text metrics
//	GET /debug/vamana/requests                recent + slow requests
//	GET /debug/vamana/*                       engine debug handlers
//
// Requests carry their tenant in the X-Vamana-Tenant header; the
// -tenants file maps tenant names to entitlements (resource-budget
// ceilings, in-flight caps, plan-cache quotas):
//
//	{
//	  "default": {"limits": {"MaxResults": 100000}, "max_inflight": 8},
//	  "tenants": {
//	    "gold": {"max_inflight": 32, "plan_quota": 256},
//	    "batch": {"limits": {"Timeout": 2000000000}, "max_inflight": 2}
//	  }
//	}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"vamana"
	"vamana/internal/serve"
	"vamana/internal/xmark"
)

// loadFlag collects repeated -load name=path pairs.
type loadFlag []string

func (l *loadFlag) String() string     { return strings.Join(*l, ",") }
func (l *loadFlag) Set(v string) error { *l = append(*l, v); return nil }

// tenantsFile is the on-disk shape of the -tenants config.
type tenantsFile struct {
	Default serve.TenantConfig            `json:"default"`
	Tenants map[string]serve.TenantConfig `json:"tenants"`
}

func main() {
	var loads loadFlag
	var (
		addr         = flag.String("addr", ":8372", "listen address")
		path         = flag.String("path", "", "backing store file (empty = in-memory)")
		cachePages   = flag.Int("cache-pages", 0, "index page cache size in 8 KiB pages (0 = default)")
		xmarkFactor  = flag.Float64("xmark", 0, "generate an XMark document at this factor as document \"auction\"")
		xmarkSeed    = flag.Int64("xmark-seed", 51, "XMark generator seed")
		maxInflight  = flag.Int("max-inflight", 64, "global cap on concurrently executing queries")
		queueDepth   = flag.Int("queue-depth", 256, "admission queue bound")
		queueWait    = flag.Duration("queue-wait", time.Second, "longest time a request may wait queued")
		maxConns     = flag.Int("max-conns", 0, "cap on concurrently accepted connections (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "bound on graceful drain")
		tenantsPath  = flag.String("tenants", "", "tenant entitlements JSON file")
		slowQuery    = flag.Duration("slow-query", 0, "slow-query threshold (0 = off)")
		recorder     = flag.Int("flight-recorder", 128, "size of the record ring behind /debug/vamana/{requests,slow,traces}; > 0 also records spans for every query (0 = no per-query spans, ring of 256)")
		accessLog    = flag.String("access-log", "", "access log destination: a file path, \"stderr\", or \"stdout\" (empty = off)")
		slowRequest  = flag.Duration("slow-request", 500*time.Millisecond, "threshold for the slow list at /debug/vamana/requests (negative = off)")
	)
	flag.Var(&loads, "load", "load an XML document: name=path (repeatable)")
	flag.Parse()

	opts := vamana.Options{
		Path:               *path,
		CachePages:         *cachePages,
		SlowQueryThreshold: *slowQuery,
		SlowQueryLog:       os.Stderr,
		FlightRecorderSize: *recorder,
	}
	if *slowQuery == 0 {
		opts.SlowQueryLog = nil
	}
	db, err := vamana.Open(opts)
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	loaded := make(map[string]bool)
	for _, name := range db.Documents() {
		loaded[name] = true // pre-existing documents in a file-backed store
	}
	for _, spec := range loads {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -load %q, want name=path", spec))
		}
		if loaded[name] {
			fmt.Fprintf(os.Stderr, "vamanad: document %q already in store, skipping load\n", name)
			continue
		}
		f, err := os.Open(file)
		if err != nil {
			fatal(err)
		}
		_, err = db.LoadXML(name, f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("load %s: %w", spec, err))
		}
		loaded[name] = true
	}
	if *xmarkFactor > 0 && !loaded["auction"] {
		src := xmark.GenerateString(xmark.Config{Factor: *xmarkFactor, Seed: *xmarkSeed})
		if _, err := db.LoadXMLString("auction", src); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vamanad: generated XMark document \"auction\" (%.1f KB)\n", float64(len(src))/1024)
	}
	if len(db.Documents()) == 0 {
		fatal(errors.New("no documents: pass -load name=path or -xmark <factor>"))
	}

	cfg := serve.Config{
		DB:                   db,
		MaxInflight:          *maxInflight,
		QueueDepth:           *queueDepth,
		QueueWait:            *queueWait,
		MaxConns:             *maxConns,
		DrainTimeout:         *drainTimeout,
		SlowRequestThreshold: *slowRequest,
	}
	switch *accessLog {
	case "":
	case "stderr":
		cfg.AccessLog = os.Stderr
	case "stdout":
		cfg.AccessLog = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.AccessLog = f
	}
	if *tenantsPath != "" {
		raw, err := os.ReadFile(*tenantsPath)
		if err != nil {
			fatal(err)
		}
		var tf tenantsFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *tenantsPath, err))
		}
		cfg.DefaultTenant = tf.Default
		cfg.Tenants = tf.Tenants
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	drained := srv.HandleSignals(syscall.SIGTERM, syscall.SIGINT)

	fmt.Fprintf(os.Stderr, "vamanad: serving %v on %s\n", db.Documents(), *addr)
	if err := srv.ListenAndServe(*addr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	// The listener closed because a signal started the drain; wait for
	// in-flight streams to finish.
	if err := <-drained; err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	fmt.Fprintln(os.Stderr, "vamanad: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vamanad:", err)
	os.Exit(1)
}
