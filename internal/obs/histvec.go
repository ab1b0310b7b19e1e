package obs

// Labeled histogram families, added for per-tenant serving SLOs: one
// latency histogram per (tenant, outcome) pair without pre-declaring
// either population. Cells share the striped power-of-two bucket layout
// of Histogram, so concurrent request finishes never serialize on one
// cache line, and snapshots merge cheaply for per-tenant quantiles.
//
// This file also owns the Prometheus label-value escaping helpers. The
// text exposition spec escapes exactly three characters inside label
// values — backslash, double-quote, newline — while Go's %q escapes
// tabs, non-printables and non-ASCII too, which corrupts round-trips of
// user-supplied values (tenant names flow into labels verbatim). Every
// labeled exposition path goes through appendPromLabel.

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// appendPromEscaped appends s escaped per the Prometheus text
// exposition rules for label values: `\` → `\\`, `"` → `\"`, newline →
// `\n`; every other byte (tabs, UTF-8, control characters) passes
// through verbatim.
func appendPromEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendPromLabel appends one name="value" pair with spec-correct value
// escaping.
func appendPromLabel(dst []byte, name, value string) []byte {
	dst = append(dst, name...)
	dst = append(dst, '=', '"')
	dst = appendPromEscaped(dst, value)
	return append(dst, '"')
}

// promLabel renders one name="value" pair as a string (the convenience
// form for fmt-based writers).
func promLabel(name, value string) string {
	return string(appendPromLabel(make([]byte, 0, len(name)+len(value)+4), name, value))
}

// promLabelSet renders a full {n1="v1",n2="v2"} label set.
func promLabelSet(names, values []string) string {
	dst := make([]byte, 0, 32)
	dst = append(dst, '{')
	for i, n := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendPromLabel(dst, n, values[i])
	}
	return string(append(dst, '}'))
}

// snapshotStripes folds one stripe set into a HistogramSnapshot —
// shared by Histogram and HistogramVec cells.
func snapshotStripes(stripes *[numStripes]histStripe) HistogramSnapshot {
	var s HistogramSnapshot
	for i := range stripes {
		st := &stripes[i]
		for j := range st.buckets {
			n := st.buckets[j].Load()
			s.Buckets[j] += n
			s.Count += n
		}
		s.SumNS += st.sumNS.Load()
	}
	return s
}

// Merge folds another snapshot into s — used to aggregate a tenant's
// per-outcome cells into one quantile-bearing distribution.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.SumNS += o.SumNS
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// HistogramVec is a family of latency histograms keyed by a fixed list
// of labels — per-tenant, per-outcome request latency. Cells
// materialize on first observation and live for the process; the
// serving layer bounds the label population (tenants come from
// configuration plus a catch-all, outcomes are a closed set), so the
// map never grows unbounded.
type HistogramVec struct {
	name   string
	help   string
	labels []string

	mu sync.RWMutex
	m  map[string]*histVecCell
}

// histVecCell is one label combination's histogram.
type histVecCell struct {
	values  []string
	stripes [numStripes]histStripe
}

// vecKeySep joins label values into map keys; label values containing
// it would collide, but it is a non-printable byte no sane tenant name
// or outcome label carries.
const vecKeySep = "\x1f"

// NewHistogramVec creates and registers a labeled histogram family
// (same uniqueness rule as NewCounter; uniqueness is by family name).
func NewHistogramVec(name, help string, labels ...string) *HistogramVec {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, v := range registry.histVecs {
		if v.name == name {
			return v
		}
	}
	v := &HistogramVec{name: name, help: help, labels: labels, m: make(map[string]*histVecCell)}
	registry.histVecs = append(registry.histVecs, v)
	return v
}

// Name returns the family's exposition name.
func (v *HistogramVec) Name() string { return v.name }

// cell returns (creating if needed) the histogram cell for one label
// combination. values must match the family's label count.
func (v *HistogramVec) cell(values []string) *histVecCell {
	key := strings.Join(values, vecKeySep)
	v.mu.RLock()
	c := v.m[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[key]; c == nil {
		c = &histVecCell{values: append([]string(nil), values...)}
		v.m[key] = c
	}
	return c
}

// Observe records one duration under the given label values.
func (v *HistogramVec) Observe(d time.Duration, values ...string) {
	c := v.cell(values)
	ns := uint64(d.Nanoseconds())
	b := bits.Len64(ns)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	s := &c.stripes[stripeIdx()]
	s.buckets[b].Add(1)
	s.sumNS.Add(ns)
}

// Snapshot returns the current snapshot for one exact label
// combination (zero-valued when it was never observed).
func (v *HistogramVec) Snapshot(values ...string) HistogramSnapshot {
	key := strings.Join(values, vecKeySep)
	v.mu.RLock()
	c := v.m[key]
	v.mu.RUnlock()
	if c == nil {
		return HistogramSnapshot{}
	}
	return snapshotStripes(&c.stripes)
}

// LabeledHistogram is one cell's snapshot with its label values, in the
// family's label order.
type LabeledHistogram struct {
	Values []string
	HistogramSnapshot
}

// Cells snapshots every materialized label combination, sorted by label
// values for deterministic output.
func (v *HistogramVec) Cells() []LabeledHistogram {
	v.mu.RLock()
	cells := make([]*histVecCell, 0, len(v.m))
	for _, c := range v.m {
		cells = append(cells, c)
	}
	v.mu.RUnlock()
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i].values, cells[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	out := make([]LabeledHistogram, len(cells))
	for i, c := range cells {
		out[i] = LabeledHistogram{Values: c.values, HistogramSnapshot: snapshotStripes(&c.stripes)}
	}
	return out
}

// snapshotInto folds the family into out, one set of
// name{labels}_count/_sum_ns/_p50/_p95/_p99 entries per cell.
func (v *HistogramVec) snapshotInto(out map[string]uint64) {
	for _, c := range v.Cells() {
		base := v.name + promLabelSet(v.labels, c.Values)
		out[base+"_count"] = c.Count
		out[base+"_sum_ns"] = c.SumNS
		out[base+"_p50"] = uint64(c.Quantile(0.50))
		out[base+"_p95"] = uint64(c.Quantile(0.95))
		out[base+"_p99"] = uint64(c.Quantile(0.99))
	}
}

// writeText writes the family in Prometheus text exposition format:
// cumulative buckets with nanosecond le bounds per cell, plus
// precomputed per-cell quantile gauges so dashboards get per-tenant
// tail latency without PromQL bucket math.
func (v *HistogramVec) writeText(w io.Writer) error {
	cells := v.Cells()
	if len(cells) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", v.name, v.help, v.name); err != nil {
		return err
	}
	for _, c := range cells {
		labels := promLabelSet(v.labels, c.Values)
		inner := labels[1 : len(labels)-1] // without braces, to splice le in
		var cum uint64
		for i, n := range c.Buckets {
			cum += n
			if cum == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"%d\"} %d\n", v.name, inner, uint64(1)<<uint(i)-1, cum); err != nil {
				return err
			}
			if cum == c.Count {
				break
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n%s_sum%s %d\n%s_count%s %d\n",
			v.name, inner, c.Count, v.name, labels, c.SumNS, v.name, labels, c.Count); err != nil {
			return err
		}
	}
	for _, q := range [...]struct {
		suffix string
		q      float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
		if _, err := fmt.Fprintf(w, "# TYPE %s_%s gauge\n", v.name, q.suffix); err != nil {
			return err
		}
		for _, c := range cells {
			if _, err := fmt.Fprintf(w, "%s_%s%s %d\n",
				v.name, q.suffix, promLabelSet(v.labels, c.Values), uint64(c.Quantile(q.q))); err != nil {
				return err
			}
		}
	}
	return nil
}
