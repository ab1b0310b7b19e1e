// Package obs is VAMANA's zero-dependency observability substrate:
// process-global atomic counters and lock-free latency histograms with a
// Prometheus-text / expvar-style exposition. Every storage and execution
// layer reports into it, so a serving process can answer "what did the
// engine actually do" — page reads, index seeks, cache hits, per-axis
// scans, query latencies — without a debugger or a recompile.
//
// Counters here are process-global (they aggregate over every open DB in
// the process); per-store counters (pager I/O under the pager's lock,
// and unregistered striped Counters that every finished read adds its
// B+-tree and record counts to) are merged into the exposition by
// core.Engine.WriteMetrics.
//
// Collection is always on: the serving fast path stays allocation-free
// because per-run counts are batched in the executor and flushed once
// per query.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// registry holds every metric in registration order for exposition.
var registry struct {
	mu         sync.Mutex
	counters   []*Counter
	histograms []*Histogram
	gauges     []*Gauge
	vecs       []*CounterVec
	histVecs   []*HistogramVec
}

// numStripes spreads each metric's hot atomics over independent cache
// lines. Concurrent serving goroutines would otherwise serialize on the
// same line for every counter bump, which costs several percent of warm
// query latency at GOMAXPROCS writers.
const numStripes = 8

// stripe is one cache-line-padded accumulator cell.
type stripe struct {
	v atomic.Uint64
	_ [56]byte
}

// stripeIdx derives a stripe from the current goroutine's stack address.
// Goroutine stacks live in distinct 2KB+ spans, so the bits above the
// frame offset spread concurrent writers across stripes at the cost of a
// couple of register instructions — no TLS, no extra atomics.
func stripeIdx() uint64 {
	var b byte
	return (uint64(uintptr(unsafe.Pointer(&b))) >> 11) & (numStripes - 1)
}

// Counter is a monotonically increasing striped atomic counter,
// registered under a unique exposition name by NewCounter. Increments
// are safe from any goroutine. The zero value is an unregistered
// counter, for totals an owner exposes itself.
type Counter struct {
	name    string
	help    string
	stripes [numStripes]stripe
}

// NewCounter creates and registers a counter. Names must be unique;
// registering a duplicate returns the existing counter so package-level
// metric variables stay safe under test re-initialization.
func NewCounter(name, help string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name, help: help}
	registry.counters = append(registry.counters, c)
	return c
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.stripes[stripeIdx()].v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current value (the sum over stripes).
func (c *Counter) Value() uint64 {
	var v uint64
	for i := range c.stripes {
		v += c.stripes[i].v.Load()
	}
	return v
}

// Name returns the counter's exposition name.
func (c *Counter) Name() string { return c.name }

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts observations with nanoseconds in [2^(i-1), 2^i), which spans
// sub-microsecond index probes through multi-minute scans.
const histBuckets = 41

// Histogram is a lock-free latency histogram over power-of-two
// nanosecond buckets. Observations are two atomic adds into the caller's
// stripe; readers take a consistent-enough snapshot without stopping
// writers.
type Histogram struct {
	name    string
	help    string
	stripes [numStripes]histStripe
}

// histStripe keeps one writer group's buckets together and away from the
// other stripes' lines (the trailing pad rounds the struct to a
// cache-line multiple).
type histStripe struct {
	buckets [histBuckets]atomic.Uint64
	sumNS   atomic.Uint64
	_       [48]byte
}

// NewHistogram creates and registers a histogram (same uniqueness rule
// as NewCounter).
func NewHistogram(name, help string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, h := range registry.histograms {
		if h.name == name {
			return h
		}
	}
	h := &Histogram{name: name, help: help}
	registry.histograms = append(registry.histograms, h)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	b := bits.Len64(ns) // 0 for 0ns, else floor(log2)+1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	s := &h.stripes[stripeIdx()]
	s.buckets[b].Add(1)
	s.sumNS.Add(ns)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count   uint64
	SumNS   uint64
	Buckets [histBuckets]uint64 // Buckets[i] counts observations < 2^i ns (non-cumulative)
}

// Snapshot copies the histogram's current buckets and sum, folding the
// stripes together.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return snapshotStripes(&h.stripes)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed durations, at power-of-two resolution. Zero when empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			return time.Duration(uint64(1)<<uint(i) - 1)
		}
	}
	return time.Duration(uint64(1)<<uint(histBuckets) - 1)
}

// Snapshot returns every registered metric's current value keyed by
// exposition name. Histograms contribute <name>_count and <name>_sum_ns.
// Intended for tests (monotonicity assertions) and expvar-style dumps.
func Snapshot() map[string]uint64 {
	registry.mu.Lock()
	counters := append([]*Counter(nil), registry.counters...)
	histograms := append([]*Histogram(nil), registry.histograms...)
	gauges := append([]*Gauge(nil), registry.gauges...)
	vecs := append([]*CounterVec(nil), registry.vecs...)
	histVecs := append([]*HistogramVec(nil), registry.histVecs...)
	registry.mu.Unlock()
	out := make(map[string]uint64, len(counters)+2*len(histograms))
	for _, c := range counters {
		out[c.name] = c.Value()
	}
	for _, g := range gauges {
		out[g.name] = uint64(g.Value())
	}
	for _, v := range vecs {
		v.snapshotInto(out)
	}
	for _, v := range histVecs {
		v.snapshotInto(out)
	}
	for _, h := range histograms {
		s := h.Snapshot()
		out[h.name+"_count"] = s.Count
		out[h.name+"_sum_ns"] = s.SumNS
		out[h.name+"_p50"] = uint64(s.Quantile(0.50))
		out[h.name+"_p95"] = uint64(s.Quantile(0.95))
		out[h.name+"_p99"] = uint64(s.Quantile(0.99))
	}
	return out
}

// WriteText writes every registered metric in Prometheus text exposition
// format (counters as `counter`, histograms as cumulative `histogram`
// with nanosecond `le` bounds).
func WriteText(w io.Writer) error {
	registry.mu.Lock()
	counters := append([]*Counter(nil), registry.counters...)
	histograms := append([]*Histogram(nil), registry.histograms...)
	gauges := append([]*Gauge(nil), registry.gauges...)
	vecs := append([]*CounterVec(nil), registry.vecs...)
	histVecs := append([]*HistogramVec(nil), registry.histVecs...)
	registry.mu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	for _, c := range counters {
		if err := WriteCounterText(w, c.name, c.help, c.Value()); err != nil {
			return err
		}
	}
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			g.name, g.help, g.name, g.name, g.Value()); err != nil {
			return err
		}
	}
	sort.Slice(vecs, func(i, j int) bool { return vecs[i].name < vecs[j].name })
	for _, v := range vecs {
		if err := v.writeText(w); err != nil {
			return err
		}
	}
	sort.Slice(histVecs, func(i, j int) bool { return histVecs[i].name < histVecs[j].name })
	for _, v := range histVecs {
		if err := v.writeText(w); err != nil {
			return err
		}
	}
	for _, h := range histograms {
		s := h.Snapshot()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name); err != nil {
			return err
		}
		var cum uint64
		for i, n := range s.Buckets {
			cum += n
			// Skip empty leading/trailing buckets but keep the shape
			// readable: emit a bucket once anything at or below it exists.
			if cum == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.name, uint64(1)<<uint(i)-1, cum); err != nil {
				return err
			}
			if cum == s.Count {
				break
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			h.name, s.Count, h.name, s.SumNS, h.name, s.Count); err != nil {
			return err
		}
		// Precomputed quantile gauges (power-of-two upper bounds) so
		// dashboards get tail latency without PromQL bucket math.
		for _, q := range [...]struct {
			suffix string
			q      float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			if _, err := fmt.Fprintf(w, "# TYPE %s_%s gauge\n%s_%s %d\n",
				h.name, q.suffix, h.name, q.suffix, uint64(s.Quantile(q.q))); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCounterText writes one counter-typed metric line with its HELP/
// TYPE preamble — shared by the registry exposition and by layers that
// expose per-instance counters (store metrics, cache stats).
func WriteCounterText(w io.Writer, name, help string, v uint64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	return err
}

// Handler returns an HTTP handler that serves the metric exposition:
// the global registry plus any extra per-instance sections (e.g. a
// database's storage counters) appended by the callbacks.
func Handler(extra ...func(w io.Writer)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteText(w); err != nil {
			return
		}
		for _, fn := range extra {
			fn(w)
		}
	})
}
