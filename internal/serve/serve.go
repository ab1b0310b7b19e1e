// Package serve is the VAMANA multi-tenant serving daemon: one engine
// (one *vamana.DB) multiplexed across many tenants over HTTP, with
// admission control in front of execution and a graceful drain path
// behind it.
//
// The layering is deliberate: the engine already enforces *per-query*
// governance (timeouts, result/page/record budgets) and *per-store*
// consistency (MVCC snapshots, crash-safe commits). What a daemon adds
// is the *cross-query* discipline — how many queries run at once, which
// tenant they bill to, what happens to the excess, and how the process
// stops without severing in-flight result streams. All of that lives
// here; the engine below is unchanged.
//
// Request path for /v1/query:
//
//	resolve tenant → admission (admit / queue / typed reject)
//	  → clamp request budgets to the tenant's ceilings
//	  → plan-cache quota check (over quota ⇒ compile uncached)
//	  → execute against the engine's shared MVCC snapshot
//	  → stream results as NDJSON with an in-band terminal line
//
// Drain (SIGTERM or Server.Drain) flips /healthz to 503, rejects new and
// queued requests with OverloadError{draining}, and waits for admitted
// result streams to finish before returning.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"time"

	"vamana"
	"vamana/internal/obs"
)

// Config configures a Server. DB is required; every other field has a
// serving-grade default.
type Config struct {
	// DB is the engine the daemon serves. The Server does not own it:
	// Close and Drain leave the DB open for the caller.
	DB *vamana.DB

	// MaxInflight is the global cap on concurrently executing queries.
	// Default 64.
	MaxInflight int
	// QueueDepth is the admission queue bound; requests arriving with
	// the queue full are rejected immediately. Default 256.
	QueueDepth int
	// QueueWait is the longest a request may sit queued before a
	// queue-timeout rejection. Default 1s.
	QueueWait time.Duration
	// MaxConns caps concurrently accepted TCP connections (0 =
	// unlimited). Accepts beyond the cap block in the listener until a
	// connection closes, bounding per-connection memory before HTTP
	// parsing even starts.
	MaxConns int
	// DrainTimeout bounds Drain: in-flight streams get this long to
	// finish before the HTTP server is torn down anyway. Default 30s.
	DrainTimeout time.Duration

	// DefaultTenant is the entitlement set for requests whose tenant has
	// no explicit entry in Tenants (including the anonymous "default"
	// tenant). The zero value is fully open.
	DefaultTenant TenantConfig
	// Tenants maps tenant names to explicit entitlements.
	Tenants map[string]TenantConfig

	// AccessLog receives one structured NDJSON line per finished
	// /v1/query request (id, tenant, expr hash, outcome, queue wait,
	// TTFB, total, bytes). nil disables the log; the request records in
	// the DB's ring and the metrics are unaffected.
	AccessLog io.Writer
	// SlowRequestThreshold selects the requests at or above this
	// end-to-end duration (and every errored request) for the slow list
	// of /debug/vamana/requests. Default 500ms; negative empties the
	// list.
	SlowRequestThreshold time.Duration

	// Hooks expose deterministic test points; nil in production.
	Hooks Hooks
}

// Hooks are test seams. Each is called synchronously on the request
// goroutine when non-nil.
type Hooks struct {
	// PostAdmit runs after admission succeeds and before execution,
	// while the request holds its in-flight slot. Tests block here to
	// pin the admission state machine in a known configuration.
	PostAdmit func(tenant string)
}

// Server is the serving daemon. Create with New, expose with Handler
// (for tests and embedding) or ListenAndServe, stop with Drain.
type Server struct {
	cfg Config
	db  *vamana.DB
	adm *admission
	reg *registry
	obs *requestObs
	mux *http.ServeMux

	// wg tracks in-flight query handlers so Handler-only deployments
	// (httptest, embedding) can drain without an http.Server.
	wg sync.WaitGroup

	mu   sync.Mutex
	http *http.Server
	ln   net.Listener
}

// New builds a Server over cfg.DB.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("serve: Config.DB is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.SlowRequestThreshold == 0 {
		cfg.SlowRequestThreshold = 500 * time.Millisecond
	}
	s := &Server{
		cfg: cfg,
		db:  cfg.DB,
		adm: newAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.QueueWait),
		reg: newRegistry(cfg.DefaultTenant, cfg.Tenants),
		obs: newRequestObs(cfg.AccessLog),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/docs", s.handleDocs)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", cfg.DB.MetricsHandler())
	mux.HandleFunc("/debug/vamana/requests", s.handleRequests)
	mux.Handle("/debug/vamana/", cfg.DB.DebugHandler("/debug/vamana"))
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler, for httptest servers and
// embedding into a larger mux.
func (s *Server) Handler() http.Handler { return s.mux }

// TenantHeader is the request header carrying the tenant identity.
// Absent or empty means DefaultTenantName.
const TenantHeader = "X-Vamana-Tenant"

// ListenAndServe listens on addr and serves until Drain or a listener
// error. It returns http.ErrServerClosed after a completed Drain, like
// net/http.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on ln (applying Config.MaxConns) until Drain or a
// listener error.
func (s *Server) Serve(ln net.Listener) error {
	if s.cfg.MaxConns > 0 {
		ln = &limitListener{Listener: ln, sem: make(chan struct{}, s.cfg.MaxConns)}
	}
	hs := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.http = hs
	s.ln = ln
	s.mu.Unlock()
	// A drain that raced server startup saw http==nil and could not
	// shut it down; honor it now instead of serving forever.
	if _, _, draining := s.adm.stats(); draining {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		_ = hs.Shutdown(ctx)
		return http.ErrServerClosed
	}
	return hs.Serve(ln)
}

// Addr returns the listening address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Drain gracefully stops the daemon: new and queued requests are
// rejected with OverloadError{draining} (503 on the wire, /healthz goes
// unhealthy), while every admitted request keeps its connection and
// finishes its result stream. Drain returns when all in-flight work is
// done or ctx expires, whichever is first.
func (s *Server) Drain(ctx context.Context) error {
	s.adm.drain()

	// Wait for in-flight handlers regardless of how requests arrived
	// (owned http.Server or external Handler).
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.mu.Lock()
	hs := s.http
	s.mu.Unlock()
	if hs != nil {
		// Shutdown closes the listener and waits for idle connections;
		// in-flight ones already finished above (or ctx expired and we
		// propagate its error).
		if serr := hs.Shutdown(ctx); err == nil {
			err = serr
		}
	}
	return err
}

// HandleSignals arranges for the given signals (SIGTERM/SIGINT
// typically) to trigger a Drain bounded by Config.DrainTimeout. The
// returned channel receives the Drain result once a signal has been
// handled.
func (s *Server) HandleSignals(sig ...os.Signal) <-chan error {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sig...)
	done := make(chan error, 1)
	go func() {
		<-ch
		signal.Stop(ch)
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		done <- s.Drain(ctx)
	}()
	return done
}

// Stats is the daemon's instantaneous serving state.
type Stats struct {
	Inflight    int                    `json:"inflight"`
	Queued      int                    `json:"queued"`
	Draining    bool                   `json:"draining"`
	MaxInflight int                    `json:"max_inflight"`
	QueueDepth  int                    `json:"queue_depth"`
	Tenants     map[string]TenantStats `json:"tenants"`
}

// Stats reports the daemon's current admission and tenant state.
func (s *Server) Stats() Stats {
	inflight, queued, draining := s.adm.stats()
	return Stats{
		Inflight:    inflight,
		Queued:      queued,
		Draining:    draining,
		MaxInflight: s.cfg.MaxInflight,
		QueueDepth:  s.cfg.QueueDepth,
		Tenants:     s.reg.snapshot(s.adm),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if _, _, draining := s.adm.stats(); draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleDocs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.db.Documents())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Stats())
}

// queryRequest is the parsed form of one /v1/query call.
type queryRequest struct {
	doc     string
	expr    string
	ordered bool
	limits  vamana.Limits
}

// parseQuery reads request parameters from the URL query (GET) or form
// body (POST). Durations are Go duration strings; counts are base-10.
func parseQuery(r *http.Request) (queryRequest, error) {
	var q queryRequest
	q.doc = r.FormValue("doc")
	q.expr = r.FormValue("q")
	if q.expr == "" {
		q.expr = r.FormValue("query")
	}
	if q.doc == "" || q.expr == "" {
		return q, errors.New("serve: parameters doc and q are required")
	}
	q.ordered = r.FormValue("ordered") == "1" || r.FormValue("ordered") == "true"
	if v := r.FormValue("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return q, fmt.Errorf("serve: bad timeout %q", v)
		}
		q.limits.Timeout = d
	}
	for _, p := range []struct {
		name string
		dst  *uint64
	}{
		{"max_results", &q.limits.MaxResults},
		{"max_pages", &q.limits.MaxPagesRead},
		{"max_records", &q.limits.MaxDecodedRecords},
	} {
		if v := r.FormValue(p.name); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return q, fmt.Errorf("serve: bad %s %q", p.name, v)
			}
			*p.dst = n
		}
	}
	return q, nil
}

// handleQuery is the daemon's main endpoint: admission, tenancy,
// execution, NDJSON streaming — with one request ID threading the
// serve-layer spans, the engine trace, the SLO histograms, and the
// access log together (see obsv.go).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	req, err := parseQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tn := s.reg.get(r.Header.Get(TenantHeader))

	s.wg.Add(1)
	defer s.wg.Done()

	// rs.finish is deferred first so it runs last — after res.Close has
	// fired the engine's finish hook and filled the captured record.
	cw := &countingWriter{ResponseWriter: w, start: start}
	w = cw
	var count uint64
	rs := s.beginRequest(cw, r, tn, req, start)
	defer func() { rs.finish(count) }()

	queueWait, err := s.adm.admit(r.Context(), tn)
	rs.admitted(queueWait, err)
	if err != nil {
		writeError(w, err)
		return
	}
	defer s.adm.release(tn)
	defer func() {
		tn.served.Add(1)
		tn.bytesOut.Add(cw.bytes)
	}()
	if s.cfg.Hooks.PostAdmit != nil {
		s.cfg.Hooks.PostAdmit(tn.name)
	}
	defer obs.TenantQueries.Inc(tn.name)

	// The tenant's ceilings clamp whatever the request asked for: a
	// request can always tighten its own budgets, never exceed the
	// entitlement.
	limits := req.limits.Clamp(tn.cfg.Limits)
	opts := []vamana.QueryOption{vamana.WithLimits(limits)}
	if req.ordered {
		opts = append(opts, vamana.Ordered())
	}

	doc, err := s.db.Document(req.doc)
	if err != nil {
		rs.fail(err)
		writeError(w, err)
		return
	}

	// A slow or traced engine run joins the request: it stamps the wire
	// ID into its record and hands the record back for the request's.
	ctx := vamana.WithRequestTrace(r.Context(), &rs.rt)
	rs.executing()
	var res *vamana.Results
	if tn.allowCached(req.expr) {
		res, err = s.db.QueryContext(ctx, doc, req.expr, opts...)
	} else {
		// Plan quota exhausted: compile a throwaway plan so this tenant
		// cannot churn the shared plan cache.
		obs.TenantUncached.Inc(tn.name)
		var q *vamana.Query
		q, err = s.db.Prepare(req.expr, vamana.WithDocument(doc), vamana.WithoutCache())
		if err == nil {
			res, err = q.Run(ctx, doc, opts...)
		}
	}
	if err != nil {
		rs.fail(err)
		writeError(w, err)
		return
	}
	defer res.Close()

	// Stream. The 200 status is committed with the first payload line;
	// failures before that still get a real HTTP status. Lines go
	// through one buffered writer so a large result set is framed in
	// few big chunks instead of one chunk (and potentially one syscall)
	// per node.
	var sb *streamBuf
	defer func() {
		if sb != nil {
			sb.release()
		}
	}()
	startStream := func() {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		sb = getStreamBuf(w)
	}
	for res.Next() {
		n, nerr := res.Node()
		if nerr != nil {
			rs.fail(nerr)
			if sb == nil {
				writeError(w, nerr)
				return
			}
			_ = encodeStreamError(sb.bw, nerr)
			_ = sb.bw.Flush()
			obs.TenantResults.Add(tn.name, count)
			return
		}
		if sb == nil {
			startStream()
		}
		if werr := sb.write(appendNode(sb.line[:0], n)); werr != nil {
			// Client went away mid-stream; nothing left to tell it.
			rs.fail(context.Canceled)
			obs.TenantResults.Add(tn.name, count)
			return
		}
		count++
	}
	obs.TenantResults.Add(tn.name, count)
	if qerr := res.Err(); qerr != nil {
		rs.fail(qerr)
		if sb == nil {
			writeError(w, qerr)
			return
		}
		_ = encodeStreamError(sb.bw, qerr)
		_ = sb.bw.Flush()
		return
	}
	if sb == nil {
		startStream()
	}
	_ = sb.write(appendDone(sb.line[:0], count))
	_ = sb.bw.Flush()
}

// streamBuf is one response stream's buffered writer and line scratch,
// pooled across requests so a stream allocates neither: a fresh 32 KiB
// writer per request was most of the bytes a warm request allocated.
// The size stays 32 KiB, so chunk framing is that of an unpooled writer.
type streamBuf struct {
	bw   *bufio.Writer
	line []byte
}

var streamBufs = sync.Pool{New: func() any {
	return &streamBuf{bw: bufio.NewWriterSize(nil, 32<<10)}
}}

// getStreamBuf takes a pooled stream buffer writing to w.
func getStreamBuf(w io.Writer) *streamBuf {
	sb := streamBufs.Get().(*streamBuf)
	sb.bw.Reset(w)
	return sb
}

// write buffers one encoded line, keeping its backing as the next
// line's scratch.
func (sb *streamBuf) write(line []byte) error {
	sb.line = line
	_, err := sb.bw.Write(line)
	return err
}

// release returns sb to the pool, writing to nothing: a pooled buffer
// must not keep a finished request's response writer alive, nor the
// scratch of one outsized line.
func (sb *streamBuf) release() {
	sb.bw.Reset(nil)
	if cap(sb.line) > 64<<10 {
		sb.line = nil
	}
	streamBufs.Put(sb)
}

// limitListener bounds concurrently accepted connections: Accept blocks
// once MaxConns connections are open and resumes as they close.
type limitListener struct {
	net.Listener
	sem chan struct{}
}

func (l *limitListener) Accept() (net.Conn, error) {
	l.sem <- struct{}{}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitConn{Conn: c, release: func() { <-l.sem }}, nil
}

// limitConn releases its listener slot exactly once on Close.
type limitConn struct {
	net.Conn
	once    sync.Once
	release func()
}

func (c *limitConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.release)
	return err
}
