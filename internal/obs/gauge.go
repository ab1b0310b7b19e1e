package obs

// Gauges and labeled counters, added for the serving daemon: queue
// depth and in-flight counts are instantaneous values (gauges), and
// per-tenant traffic needs one counter per label value (a vector)
// without pre-declaring the tenant population.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Gauge is an instantaneous value (current queue depth, in-flight
// queries), registered under a unique exposition name. Unlike Counter it
// can go down, and it is not gated on Enabled: gauges back admission
// decisions and health output, not just dashboards, so they must stay
// truthful with collection off.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// NewGauge creates and registers a gauge (same uniqueness rule as
// NewCounter).
func NewGauge(name, help string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, g := range registry.gauges {
		if g.name == name {
			return g
		}
	}
	g := &Gauge{name: name, help: help}
	registry.gauges = append(registry.gauges, g)
	return g
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the gauge's exposition name.
func (g *Gauge) Name() string { return g.name }

// CounterVec is a family of monotonically increasing counters keyed by
// one label value — per-tenant queries, per-tenant rejections. Label
// values materialize their counter on first use and live for the
// process; the serving layer bounds the population (tenants come from
// configuration, plus one catch-all), so the map never grows unbounded.
type CounterVec struct {
	name  string
	help  string
	label string

	mu sync.RWMutex
	m  map[string]*atomic.Uint64
}

// NewCounterVec creates and registers a labeled counter family (same
// uniqueness rule as NewCounter; uniqueness is by family name).
func NewCounterVec(name, label, help string) *CounterVec {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, v := range registry.vecs {
		if v.name == name {
			return v
		}
	}
	v := &CounterVec{name: name, help: help, label: label, m: make(map[string]*atomic.Uint64)}
	registry.vecs = append(registry.vecs, v)
	return v
}

// cell returns (creating if needed) the counter cell for one label
// value.
func (v *CounterVec) cell(value string) *atomic.Uint64 {
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[value]; c == nil {
		c = new(atomic.Uint64)
		v.m[value] = c
	}
	return c
}

// Add increments the counter for the given label value.
func (v *CounterVec) Add(value string, n uint64) { v.cell(value).Add(n) }

// Inc increments the counter for the given label value by one.
func (v *CounterVec) Inc(value string) { v.Add(value, 1) }

// Value returns the current count for one label value (zero when the
// label has never been incremented).
func (v *CounterVec) Value(value string) uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if c := v.m[value]; c != nil {
		return c.Load()
	}
	return 0
}

// snapshotInto folds the family's current values into out, keyed
// name{label="value"} — the form Snapshot and dashboards consume. The
// label value is escaped per the Prometheus spec (appendPromLabel), not
// Go %q, so user-supplied values like tenant names round-trip.
func (v *CounterVec) snapshotInto(out map[string]uint64) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for value, c := range v.m {
		out[fmt.Sprintf("%s{%s}", v.name, promLabel(v.label, value))] = c.Load()
	}
}

// writeText writes the family in Prometheus text exposition format,
// label values sorted for deterministic output.
func (v *CounterVec) writeText(w io.Writer) error {
	v.mu.RLock()
	values := make([]string, 0, len(v.m))
	for value := range v.m {
		values = append(values, value)
	}
	counts := make(map[string]uint64, len(values))
	for value, c := range v.m {
		counts[value] = c.Load()
	}
	v.mu.RUnlock()
	if len(values) == 0 {
		return nil
	}
	sort.Strings(values)
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", v.name, v.help, v.name); err != nil {
		return err
	}
	for _, value := range values {
		if _, err := fmt.Fprintf(w, "%s{%s} %d\n", v.name, promLabel(v.label, value), counts[value]); err != nil {
			return err
		}
	}
	return nil
}
