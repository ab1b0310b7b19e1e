package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed interval of the benchmark's own making, recorded
// around a call into the engine (or the server) from outside. No span is
// recorded inside the engine. Times are nanoseconds since the window's
// driver started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Op     string `json:"op"` // worker.sequence: shared by the spans of one operation
	Class  string `json:"class,omitempty"`
}

// maxTraceSpans bounds the span file; the count recorded is written
// beside the spans so a cut is visible.
const maxTraceSpans = 40000

// appendOpSpans records one operation as a parent span and its three
// phases: the call that starts it, the wait for the first result, and
// the drain of the rest.
func appendOpSpans(dst []span, names [3]string, worker, seq int, class string, base, t0 time.Time, r opResult) []span {
	id := strconv.Itoa(worker) + "." + strconv.Itoa(seq)
	at := func(t time.Time) int64 { return int64(t.Sub(base)) }
	return append(dst,
		span{Name: "op", Start: at(t0), End: at(r.tEnd), Op: id, Class: class},
		span{Name: names[0], Start: at(t0), End: at(r.tRun), Parent: "op", Op: id},
		span{Name: names[1], Start: at(r.tRun), End: at(r.tFirst), Parent: "op", Op: id},
		span{Name: names[2], Start: at(r.tFirst), End: at(r.tEnd), Parent: "op", Op: id},
	)
}

// phaseShares sums the spans by name, as a share of the parent spans'
// total: where an operation's time goes, seen from outside.
func phaseShares(spans []span) map[string]float64 {
	total := 0.0
	by := map[string]float64{}
	for _, s := range spans {
		d := float64(s.End - s.Start)
		if s.Parent == "" {
			total += d
		} else {
			by[s.Name] += d
		}
	}
	for k := range by {
		by[k] /= total
	}
	return by
}

// writeTrace writes the stamped span file of one traced run.
func writeTrace(dir, workload string, st stamp, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	recorded := len(spans)
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Stamp    stamp  `json:"stamp"`
		Workload string `json:"workload"`
		Recorded int    `json:"spans_recorded"`
		Spans    []span `json:"spans"`
	}{st, workload, recorded, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
