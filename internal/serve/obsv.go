package serve

// Request observability: the serving half of the engine's record ring.
// Every /v1/query request gets a wire request ID (generated, or adopted
// from X-Vamana-Request / a W3C traceparent), echoed on the response and
// stamped into the engine's record of the run, so one identifier joins
// the client's log line, the access log, /debug/vamana/requests, and
// the span timeline in `vamana traces`. Each finished request writes
// exactly one obs.QueryTrace into the DB's ring: the engine's captured
// record with the serve layer's outcome added and — when it has spans —
// the serve layer's own phases (admission wait, prepare, first byte,
// stream drain) grafted as parent spans above the engine's operator
// span tree; otherwise a request-only record. The access log line is
// that record's NDJSON serialisation.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"vamana"
	"vamana/internal/obs"
)

// Wire headers for request observability.
const (
	// RequestHeader carries the request ID: client-supplied on the
	// request (adopted when valid), always echoed on the response.
	RequestHeader = "X-Vamana-Request"
	// TraceparentHeader is the W3C trace-context header; its trace-id
	// field is adopted as the request ID when no RequestHeader is given.
	TraceparentHeader = "traceparent"
	// QueueWaitHeader reports, on the response, how long the request sat
	// in the admission queue (Go duration string; "0s" when a slot was
	// free on arrival).
	QueueWaitHeader = "X-Vamana-Queue-Wait"
)

// Request outcomes — the closed label set for the per-tenant SLO
// histograms. Finer detail (rejection reason, error code) rides in the
// access log and request rings, not in metric labels.
const (
	OutcomeOK       = "ok"
	OutcomeRejected = "rejected"
	OutcomeError    = "error"
	OutcomeCanceled = "canceled"
)

// classifyOutcome maps a request's terminal error to its outcome label.
func classifyOutcome(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	default:
		switch errorCode(err) {
		case CodeOverloaded, CodeDraining:
			return OutcomeRejected
		case CodeCanceled:
			return OutcomeCanceled
		default:
			return OutcomeError
		}
	}
}

// validRequestID accepts client-supplied request IDs: 1-64 bytes of
// URL-safe ASCII (alphanumerics, '-', '_', '.'), so IDs embed cleanly
// in headers, logs, and trace output without escaping.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// traceparentID extracts the trace-id field from a W3C traceparent
// header ("00-<32 hex>-<16 hex>-<2 hex>"), empty when malformed or
// all-zero.
func traceparentID(tp string) string {
	if len(tp) < 55 || tp[2] != '-' || tp[35] != '-' || tp[52] != '-' {
		return ""
	}
	id := tp[3:35]
	zero := true
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return ""
		}
		if c != '0' {
			zero = false
		}
	}
	if zero {
		return ""
	}
	return id
}

// exprHash is a stable short hash of a query expression — the access
// log's join key for "same query, many requests" aggregation without
// logging unbounded expression text twice.
func exprHash(expr string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, expr)
	return strconv.FormatUint(h.Sum64(), 16)
}

// appendRecord appends a request's record as one NDJSON access-log
// line: id is the wire request ID, and trace_id the record's ID when it
// carries spans. Hand-built for fixed field order in one pass (the log
// is on the request path when configured).
func appendRecord(dst []byte, t *obs.QueryTrace) []byte {
	dst = append(dst, `{"time":`...)
	dst = appendJSONString(dst, t.Start.Format(time.RFC3339Nano))
	dst = append(dst, `,"id":`...)
	dst = appendJSONString(dst, t.Request)
	dst = append(dst, `,"tenant":`...)
	dst = appendJSONString(dst, t.Tenant)
	dst = append(dst, `,"doc":`...)
	dst = appendJSONString(dst, t.Doc)
	dst = append(dst, `,"expr":`...)
	dst = appendJSONString(dst, t.Expr)
	dst = append(dst, `,"expr_hash":`...)
	dst = appendJSONString(dst, exprHash(t.Expr))
	dst = append(dst, `,"outcome":`...)
	dst = appendJSONString(dst, t.Outcome)
	if t.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, t.Reason)
	}
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, int64(t.Status), 10)
	dst = append(dst, `,"queue_wait_ns":`...)
	dst = strconv.AppendInt(dst, t.QueueWait.Nanoseconds(), 10)
	if t.TTFB > 0 {
		dst = append(dst, `,"ttfb_ns":`...)
		dst = strconv.AppendInt(dst, t.TTFB.Nanoseconds(), 10)
	}
	dst = append(dst, `,"total_ns":`...)
	dst = strconv.AppendInt(dst, t.Total.Nanoseconds(), 10)
	dst = append(dst, `,"results":`...)
	dst = strconv.AppendUint(dst, t.Results, 10)
	dst = append(dst, `,"bytes":`...)
	dst = strconv.AppendUint(dst, t.Bytes, 10)
	if t.Root != nil {
		dst = append(dst, `,"trace_id":`...)
		dst = strconv.AppendUint(dst, t.ID, 10)
	}
	return append(dst, '}', '\n')
}

// requestObs is the server's request-observability state: ID generation
// and the optional access log.
type requestObs struct {
	log *obs.LineLog // nil: no access log

	salt uint64
	seq  atomic.Uint64
}

func newRequestObs(logW io.Writer) *requestObs {
	o := &requestObs{log: obs.NewLineLog(logW, appendRecord)}
	// One syscall at startup, none per request: IDs are the process salt
	// XOR a Weyl sequence, so concurrent requests get distinct,
	// unpredictable-enough 16-hex-digit IDs without contending on a
	// global rand.
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		o.salt = binary.LittleEndian.Uint64(b[:])
	}
	return o
}

// requestID resolves the request's wire ID: a valid client-supplied
// X-Vamana-Request wins, then a traceparent trace-id, else a generated
// ID.
func (o *requestObs) requestID(r *http.Request) string {
	if id := r.Header.Get(RequestHeader); id != "" && validRequestID(id) {
		return id
	}
	if id := traceparentID(r.Header.Get(TraceparentHeader)); id != "" {
		return id
	}
	v := o.salt ^ (o.seq.Add(1) * 0x9e3779b97f4a7c15)
	var hex [16]byte
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		hex[i] = digits[v&0xf]
		v >>= 4
	}
	return string(hex[:])
}

// handleRequests serves /debug/vamana/requests: the DB ring's request
// records, most recent first, and the slow ones among them (at or above
// Config.SlowRequestThreshold, or failed).
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var payload struct {
		Recent []*obs.QueryTrace `json:"recent"`
		Slow   []*obs.QueryTrace `json:"slow"`
	}
	payload.Recent = obs.Filter(s.db.RecentTraces(), func(t *obs.QueryTrace) bool { return t.Request != "" })
	if slowAt := s.cfg.SlowRequestThreshold; slowAt > 0 {
		payload.Slow = obs.Filter(payload.Recent, func(t *obs.QueryTrace) bool {
			return t.Total >= slowAt || t.Outcome == OutcomeError
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(payload)
}

// countingWriter wraps the response writer to capture status, first-
// byte time, and body bytes. Headers are committed (and flushed by
// net/http) at WriteHeader, so TTFB is measured there — the later
// bufio-buffered body writes don't skew it.
type countingWriter struct {
	http.ResponseWriter
	start  time.Time
	status int
	ttfb   time.Duration
	bytes  uint64
}

func (c *countingWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
		c.ttfb = time.Since(c.start)
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
		c.ttfb = time.Since(c.start)
	}
	n, err := c.ResponseWriter.Write(p)
	c.bytes += uint64(n)
	return n, err
}

// reqState threads one request's observability through handleQuery.
type reqState struct {
	srv   *Server
	tn    *tenant
	cw    *countingWriter
	start time.Time
	id    string
	doc   string
	expr  string

	queueWait time.Duration
	admitEnd  time.Duration // offset from start: admission decided
	execStart time.Duration // offset from start: engine query issued
	err       error         // terminal error (nil = clean stream)

	rt vamana.RequestTrace
}

// beginRequest opens request observability: resolve the ID and echo it
// on the response. cw is the handler's counting writer.
func (s *Server) beginRequest(cw *countingWriter, r *http.Request, tn *tenant, req queryRequest, start time.Time) *reqState {
	rs := &reqState{
		srv:   s,
		tn:    tn,
		cw:    cw,
		start: start,
		id:    s.obs.requestID(r),
		doc:   req.doc,
		expr:  req.expr,
	}
	rs.rt.ID = rs.id
	rs.rt.Tenant = tn.name
	cw.Header().Set(RequestHeader, rs.id)
	return rs
}

// admitted records the admission decision; the queue-wait response
// header goes out with whatever is written next.
func (rs *reqState) admitted(wait time.Duration, err error) {
	rs.queueWait = wait
	rs.admitEnd = time.Since(rs.start)
	rs.err = err
	rs.cw.Header().Set(QueueWaitHeader, wait.String())
}

// executing marks the hand-off to the engine.
func (rs *reqState) executing() { rs.execStart = time.Since(rs.start) }

// fail records the request's terminal error (first one wins — a stream
// that failed mid-flight keeps the stream error even if cleanup also
// errors).
func (rs *reqState) fail(err error) {
	if rs.err == nil {
		rs.err = err
	}
}

// finish closes out the request: histograms, then its one record into
// the DB's ring and the access log — the engine's captured record with
// the serve layer's fields (and spans, when it has some) added, or a
// request-only record when the engine captured none. Runs deferred,
// after res.Close has fired the engine's finish hook (which fills
// rt.Captured).
func (rs *reqState) finish(results uint64) {
	total := time.Since(rs.start)
	outcome := classifyOutcome(rs.err)
	obs.ServerRequestLatency.Observe(total, rs.tn.name, outcome)
	obs.ServerRequestQueueWait.Observe(rs.queueWait, rs.tn.name, outcome)

	t := rs.rt.Captured
	switch {
	case t == nil:
		t = &obs.QueryTrace{}
	case t.Root != nil:
		t.Root = rs.requestSpan(t, outcome, total, results)
	}
	t.Request, t.Tenant = rs.id, rs.tn.name
	t.Doc, t.Expr = rs.doc, rs.expr
	t.Start, t.Total, t.Results = rs.start, total, results
	t.Outcome, t.Status = outcome, rs.cw.status
	t.QueueWait, t.TTFB, t.Bytes = rs.queueWait, rs.cw.ttfb, rs.cw.bytes
	var oe *OverloadError
	if errors.As(rs.err, &oe) {
		t.Reason = string(oe.Reason)
	}
	rs.srv.db.RecordTrace(t)
	rs.srv.obs.log.Write(t)
}

// requestSpan grafts the serve-layer spans above the engine's captured
// span tree eng.Root, producing one request-rooted tree:
//
//	request
//	├─ admission     arrival → slot grant (attrs: queue wait)
//	├─ prepare       grant → engine hand-off (tenant, doc, quota)
//	├─ <engine root> the operator span tree, shifted onto the
//	│                request timeline
//	├─ ttfb          zero-width marker at the first response byte
//	└─ stream        engine finish → last byte flushed
func (rs *reqState) requestSpan(eng *obs.QueryTrace, outcome string, total time.Duration, results uint64) *obs.Span {
	totalNS := total.Nanoseconds()
	// Engine span offsets are relative to the engine query's start;
	// shift them onto the request timeline.
	delta := max(eng.Start.Sub(rs.start).Nanoseconds(), 0)
	shiftSpans(eng.Root, delta)
	engineEnd := min(delta+eng.Total.Nanoseconds(), totalNS)
	bytes := strconv.FormatUint(rs.cw.bytes, 10)

	root := &obs.Span{
		Name: "request", Kind: "serve",
		StartNS: 0, EndNS: totalNS,
		Out: eng.Results,
		Attrs: map[string]string{
			"request": rs.id,
			"tenant":  rs.tn.name,
			"outcome": outcome,
			"bytes":   bytes,
		},
	}
	root.Children = append(root.Children, &obs.Span{
		Name: "admission", Kind: "serve",
		StartNS: 0, EndNS: rs.admitEnd.Nanoseconds(),
		Attrs: map[string]string{"queue_wait": rs.queueWait.String()},
	})
	root.Children = append(root.Children, &obs.Span{
		Name: "prepare", Kind: "serve",
		StartNS: rs.admitEnd.Nanoseconds(), EndNS: rs.execStart.Nanoseconds(),
	})
	root.Children = append(root.Children, eng.Root)
	if ttfb := rs.cw.ttfb.Nanoseconds(); ttfb > 0 {
		root.Children = append(root.Children, &obs.Span{
			Name: "ttfb", Kind: "serve",
			StartNS: ttfb, EndNS: ttfb,
		})
	}
	root.Children = append(root.Children, &obs.Span{
		Name: "stream", Kind: "serve",
		StartNS: engineEnd, EndNS: totalNS,
		Out:   results,
		Attrs: map[string]string{"bytes": bytes},
	})
	return root
}

// shiftSpans moves a span tree forward by delta nanoseconds.
func shiftSpans(s *obs.Span, delta int64) {
	if s == nil || delta == 0 {
		return
	}
	s.StartNS += delta
	s.EndNS += delta
	for _, c := range s.Children {
		shiftSpans(c, delta)
	}
}
