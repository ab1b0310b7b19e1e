package obs

// Span trees and trace export. A Span is one operator's slice of a
// query's execution: when it first produced work, when it exhausted,
// how many tuples flowed through it, and how much storage it consumed.
// The execution layer records the raw per-step numbers; the serving
// layer assembles them into the tree mirroring the plan shape and hands
// the result here for export — as an indented text tree for terminals,
// or as Chrome trace-event JSON loadable in Perfetto/chrome://tracing.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one operator's recorded execution within a query. Timestamps
// are nanosecond offsets from the owning trace's start, so spans are
// self-contained and comparable across process restarts. Durations are
// inclusive: a parent span covers the time and storage consumption of
// the children nested under it, matching how trace viewers render
// flame-style nesting.
type Span struct {
	// Name is the operator's display label (e.g. "child::person" or
	// "pred").
	Name string `json:"name"`
	// Kind classifies the operator: "axis", "pred", "literal", "root".
	Kind string `json:"kind"`
	// StartNS/EndNS bound the span as offsets from the trace start.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// In, Scanned, Out are the operator's actual tuple counts: context
	// tuples consumed, index entries scanned, tuples produced.
	In      uint64 `json:"in"`
	Scanned uint64 `json:"scanned,omitempty"`
	Out     uint64 `json:"out"`
	// PagesRead and RecordsDecoded are the storage consumption charged
	// while this operator (or a descendant) was advancing — inclusive,
	// like the timestamps.
	PagesRead      uint64 `json:"pages_read,omitempty"`
	RecordsDecoded uint64 `json:"records_decoded,omitempty"`
	// EstIn/EstOut are the optimizer's cardinality estimates for the
	// operator, present when the executed plan was costed (Estimated).
	// Comparing them against In/Out is the point of the whole exercise.
	EstIn     uint64 `json:"est_in,omitempty"`
	EstOut    uint64 `json:"est_out,omitempty"`
	Estimated bool   `json:"estimated,omitempty"`
	// Children are the spans nested under this one (context child first,
	// then predicate subtrees), in plan order.
	Children []*Span `json:"children,omitempty"`
	// Attrs carries exporter-visible annotations for spans assembled
	// outside the executor (serve-layer spans: request ID, byte counts,
	// outcome); nil for engine operator spans.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// QueryTrace is the one record of what a query or a served request
// cost: identity, end-to-end timings, whole-query resource consumption,
// the cost observatory's worst estimate, the serving layer's outcome,
// and the span tree when spans were recorded. The engine's ring stores
// it, the slow-query and access logs are its one-line serialisations,
// and the exporters consume it. Fields a record does not carry stay at
// their zero value and are omitted from its JSON.
type QueryTrace struct {
	// ID is the engine-assigned record sequence number, unique per
	// engine lifetime.
	ID uint64 `json:"id"`
	// Expr and Doc identify the query.
	Expr string `json:"expr"`
	Doc  string `json:"doc"`
	// Start is the wall-clock query start time.
	Start time.Time `json:"start"`
	// Compile and Total are the compile(+optimize) and end-to-end
	// durations.
	Compile time.Duration `json:"compile_ns"`
	Total   time.Duration `json:"total_ns"`
	// CacheHit reports whether the plan came from the plan cache.
	CacheHit bool `json:"cache_hit"`
	// Results is the number of result tuples delivered.
	Results uint64 `json:"results"`
	// Whole-query storage consumption.
	PagesRead      uint64 `json:"pages_read"`
	RecordsDecoded uint64 `json:"records_decoded"`
	NodeCacheHits  uint64 `json:"node_cache_hits"`
	// Err is the query's terminal error text, empty on success.
	Err string `json:"err,omitempty"`
	// Request and Tenant tie the trace to the serving-layer request it
	// ran under: the wire request ID (X-Vamana-Request) and the tenant
	// it billed to. Empty for queries not driven through vamanad.
	Request string `json:"request,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	// WorstOp names the query's worst-misestimated operator (largest
	// q-error, when at least 2x) and WorstQErr its q-error — the cost
	// observatory's pointer at a possible mis-planning cause. Set on slow
	// queries only.
	WorstOp   string  `json:"worst_op,omitempty"`
	WorstQErr float64 `json:"worst_q_error,omitempty"`
	// The serving layer's view of a request: its outcome ("ok",
	// "rejected", "error", "canceled"), the admission rejection reason,
	// the HTTP status, the admission queue wait, the time to the
	// response's first byte, and the body bytes written.
	Outcome   string        `json:"outcome,omitempty"`
	Reason    string        `json:"reason,omitempty"`
	Status    int           `json:"status,omitempty"`
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	TTFB      time.Duration `json:"ttfb_ns,omitempty"`
	Bytes     uint64        `json:"bytes,omitempty"`
	// Root is the span tree, nil when spans were not recorded (the run
	// was neither sampled nor flight-recorded, or failed before
	// execution).
	Root *Span `json:"root,omitempty"`
}

// Filter returns, most recent first like the ring snapshot it is given,
// the records keep accepts — the slow, traced and request views.
func Filter(ts []*QueryTrace, keep func(*QueryTrace) bool) []*QueryTrace {
	out := []*QueryTrace{}
	for _, t := range ts {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// LineLog writes records as lines onto one writer. Each line is built
// in one reused buffer and handed to the writer in a single Write under
// the lock, so concurrent records never interleave and the writer needs
// no locking of its own.
type LineLog struct {
	mu     sync.Mutex
	w      io.Writer
	format func(dst []byte, t *QueryTrace) []byte
	buf    []byte
}

// NewLineLog returns a log writing format's line for each record to w,
// or nil when w is nil.
func NewLineLog(w io.Writer, format func(dst []byte, t *QueryTrace) []byte) *LineLog {
	if w == nil {
		return nil
	}
	return &LineLog{w: w, format: format}
}

// Write logs t. A nil log writes nothing.
func (l *LineLog) Write(t *QueryTrace) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.buf = l.format(l.buf[:0], t)
	_, _ = l.w.Write(l.buf)
	l.mu.Unlock()
}

// WriteTree writes the trace as an indented text tree, one line per
// span: timings, actual tuple counts, estimated-vs-actual cardinality,
// and storage consumption. This is what `vamana query -trace` prints.
func (t *QueryTrace) WriteTree(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trace %d %q doc=%s start=%s compile=%s total=%s results=%d pages=%d records=%d cachehits=%d",
		t.ID, t.Expr, t.Doc, t.Start.Format(time.RFC3339Nano), t.Compile, t.Total,
		t.Results, t.PagesRead, t.RecordsDecoded, t.NodeCacheHits); err != nil {
		return err
	}
	if t.Request != "" {
		if _, err := fmt.Fprintf(w, " req=%s", t.Request); err != nil {
			return err
		}
	}
	if t.Tenant != "" {
		if _, err := fmt.Fprintf(w, " tenant=%s", t.Tenant); err != nil {
			return err
		}
	}
	if t.CacheHit {
		if _, err := io.WriteString(w, " plan=cached"); err != nil {
			return err
		}
	}
	if t.Err != "" {
		if _, err := fmt.Fprintf(w, " err=%q", t.Err); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	if t.Root == nil {
		return nil
	}
	return writeSpanTree(w, t.Root, 0)
}

func writeSpanTree(w io.Writer, s *Span, depth int) error {
	dur := time.Duration(s.EndNS - s.StartNS)
	if _, err := fmt.Fprintf(w, "%s%s  %s  in=%d", strings.Repeat("  ", depth), s.Name, dur, s.In); err != nil {
		return err
	}
	if s.Scanned > 0 {
		if _, err := fmt.Fprintf(w, " scanned=%d", s.Scanned); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, " out=%d", s.Out); err != nil {
		return err
	}
	if s.Estimated {
		if _, err := fmt.Fprintf(w, " est_in=%d est_out=%d", s.EstIn, s.EstOut); err != nil {
			return err
		}
	}
	if s.PagesRead > 0 || s.RecordsDecoded > 0 {
		if _, err := fmt.Fprintf(w, " pages=%d records=%d", s.PagesRead, s.RecordsDecoded); err != nil {
			return err
		}
	}
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, " %s=%s", k, s.Attrs[k]); err != nil {
				return err
			}
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, c := range s.Children {
		if err := writeSpanTree(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event ("X" complete-event phase).
// Field order here fixes the JSON key order, which keeps the output
// deterministic for golden tests.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"`  // microseconds
	Dur  float64     `json:"dur"` // microseconds
	PID  int         `json:"pid"`
	TID  uint64      `json:"tid"`
	Args interface{} `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	PID  int         `json:"pid"`
	TID  uint64      `json:"tid"`
	Args interface{} `json:"args"`
}

type chromeFile struct {
	TraceEvents []interface{} `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// spanArgs is the per-event metadata payload shown in the trace
// viewer's detail pane.
type spanArgs struct {
	Kind           string            `json:"kind"`
	In             uint64            `json:"in"`
	Scanned        uint64            `json:"scanned,omitempty"`
	Out            uint64            `json:"out"`
	PagesRead      uint64            `json:"pages_read,omitempty"`
	RecordsDecoded uint64            `json:"records_decoded,omitempty"`
	EstIn          uint64            `json:"est_in,omitempty"`
	EstOut         uint64            `json:"est_out,omitempty"`
	Attrs          map[string]string `json:"attrs,omitempty"`
}

// WriteChromeTrace writes the traces as a Chrome trace-event JSON
// object (the {"traceEvents": [...]} form) loadable in Perfetto or
// chrome://tracing. Each query becomes one "thread" (tid = trace ID)
// under a shared process, with its spans as nested "X" complete events;
// timestamps are microsecond offsets from the earliest trace's start so
// concurrent queries line up on the shared timeline.
func WriteChromeTrace(w io.Writer, traces []*QueryTrace) error {
	var base time.Time
	for _, t := range traces {
		if base.IsZero() || t.Start.Before(base) {
			base = t.Start
		}
	}
	f := chromeFile{TraceEvents: []interface{}{}, DisplayUnit: "ns"}
	for _, t := range traces {
		offUS := float64(t.Start.Sub(base).Nanoseconds()) / 1e3
		label := t.Expr
		if t.Doc != "" {
			label = t.Doc + ": " + t.Expr
		}
		f.TraceEvents = append(f.TraceEvents, chromeMeta{
			Name: "thread_name", Ph: "M", PID: 1, TID: t.ID,
			Args: map[string]string{"name": fmt.Sprintf("query %d %s", t.ID, label)},
		})
		// The whole-query envelope event covers compile + execution.
		// Request identity joins only when present, so engine-only
		// traces keep their exact historical (golden-tested) shape.
		qargs := map[string]interface{}{
			"expr": t.Expr, "doc": t.Doc, "results": t.Results,
			"cache_hit": t.CacheHit, "pages_read": t.PagesRead,
			"records_decoded": t.RecordsDecoded, "node_cache_hits": t.NodeCacheHits,
		}
		if t.Request != "" {
			qargs["request"] = t.Request
		}
		if t.Tenant != "" {
			qargs["tenant"] = t.Tenant
		}
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "query", Cat: "query", Ph: "X",
			TS: offUS, Dur: float64(t.Total.Nanoseconds()) / 1e3,
			PID: 1, TID: t.ID,
			Args: qargs,
		})
		if t.Compile > 0 {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: "compile", Cat: "compile", Ph: "X",
				TS: offUS, Dur: float64(t.Compile.Nanoseconds()) / 1e3,
				PID: 1, TID: t.ID,
			})
		}
		appendChromeSpans(&f.TraceEvents, t.Root, offUS, t.ID)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

func appendChromeSpans(events *[]interface{}, s *Span, offUS float64, tid uint64) {
	if s == nil {
		return
	}
	*events = append(*events, chromeEvent{
		Name: s.Name, Cat: s.Kind, Ph: "X",
		TS:  offUS + float64(s.StartNS)/1e3,
		Dur: float64(s.EndNS-s.StartNS) / 1e3,
		PID: 1, TID: tid,
		Args: spanArgs{
			Kind: s.Kind, In: s.In, Scanned: s.Scanned, Out: s.Out,
			PagesRead: s.PagesRead, RecordsDecoded: s.RecordsDecoded,
			EstIn: s.EstIn, EstOut: s.EstOut, Attrs: s.Attrs,
		},
	})
	for _, c := range s.Children {
		appendChromeSpans(events, c, offUS, tid)
	}
}
