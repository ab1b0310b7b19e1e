package core

// The cost-model observatory: online estimated-vs-actual cardinality
// accuracy tracking.
//
// Collection joins each finished run's per-step actual counters
// (exec.Iterator.StepStat) against the optimizer's Table I annotations
// already sitting on the executed plan, and folds the q-error
//
//	q = max(est/act, act/est)
//
// into one obs.QErrorAccum per operator class, where a class is the
// step's axis × the rewrite rule that produced it (plan.Step.Prov). The
// fold runs for every query on the serving path; it is allocation-free
// (TestCostFoldAllocFree pins this) and all-atomic.
//
// The observatory only measures: nothing it folds feeds back into cost
// estimation or plan choice (DESIGN §12 says why).

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"vamana/internal/exec"
	"vamana/internal/mass"
	"vamana/internal/obs"
	"vamana/internal/opt"
	"vamana/internal/plan"
)

// provNames enumerates the provenance classes: index 0 is the compiler
// (no rewrite), then the library rules in order, then a catch-all for
// rules outside the default library.
var provNames = func() []string {
	names := []string{""}
	for _, r := range opt.Library() {
		names = append(names, r.Name)
	}
	return append(names, "other")
}()

var provIdx = func() map[string]int {
	m := make(map[string]int, len(provNames))
	for i, n := range provNames {
		m[n] = i
	}
	return m
}()

// CostOffender is the worst-misestimated observation recorded for a
// class: the expression and operator whose estimate missed by the most.
type CostOffender struct {
	Expr   string  `json:"expr"`
	Op     string  `json:"op"`
	Est    uint64  `json:"est"`
	Act    uint64  `json:"act"`
	QError float64 `json:"q_error"`
}

// CostClassProfile summarizes one operator class's q-error profile.
type CostClassProfile struct {
	Axis           string       `json:"axis"`
	Rewrite        string       `json:"rewrite"` // provenance rule; "" = compiler-built
	Samples        uint64       `json:"samples"`
	Underestimates uint64       `json:"underestimates"`
	P50            float64      `json:"p50_q_error"` // power-of-two upper bounds
	P95            float64      `json:"p95_q_error"`
	Max            float64      `json:"max_q_error"`
	Worst          CostOffender `json:"worst"`
}

// CostProfile is a point-in-time view of the observatory.
type CostProfile struct {
	Classes        []CostClassProfile `json:"classes"`
	Observations   uint64             `json:"observations"`
	Underestimates uint64             `json:"underestimates"`
}

// costClass is one axis × provenance accumulator cell.
type costClass struct {
	axis mass.Axis
	prov string
	acc  obs.QErrorAccum

	// worstQBits gates the slow path below: float64 bits of the largest
	// q recorded as an offender (positive floats order like their bits).
	worstQBits atomic.Uint64
	worst      CostOffender // guarded by CostObservatory.mu
}

// CostObservatory accumulates est-vs-act accuracy for one engine.
type CostObservatory struct {
	// cells is the flat [axis][provenance] table (allocated once at
	// construction); entries are created lazily under mu and then read
	// lock-free.
	cells []atomic.Pointer[costClass]

	mu sync.Mutex // guards cell creation and per-class worst offenders
}

func newCostObservatory() *CostObservatory {
	return &CostObservatory{
		cells: make([]atomic.Pointer[costClass], mass.AxisCount*len(provNames)),
	}
}

// class returns the accumulator cell for (axis, provenance), creating it
// on first use. The hot path is one atomic pointer load.
func (o *CostObservatory) class(axis mass.Axis, prov string) *costClass {
	pi := 0
	if prov != "" {
		var ok bool
		if pi, ok = provIdx[prov]; !ok {
			pi = len(provNames) - 1 // "other"
		}
	}
	i := int(axis)*len(provNames) + pi
	if c := o.cells[i].Load(); c != nil {
		return c
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if c := o.cells[i].Load(); c != nil {
		return c
	}
	c := &costClass{axis: axis, prov: provNames[pi]}
	o.cells[i].Store(c)
	return c
}

// fold joins the finished run's actual per-step cardinalities against
// the plan's estimates. It returns the worst-misestimated step and its
// q-error (nil, 0 when nothing was recorded) for the slow-query log.
// Allocation-free except when a class records a new worst offender.
func (o *CostObservatory) fold(it *exec.Iterator, expr string) (*plan.Step, float64) {
	var worstOp *plan.Step
	var worstQ float64
	var nObs, nUnder uint64
	n := it.NumSteps()
	for i := 0; i < n; i++ {
		st := it.StepStat(i)
		if st.Op == nil || !st.Op.Cost.Done {
			continue
		}
		est := st.Op.Cost.Out
		cls := o.class(st.Op.Axis, st.Op.Prov)
		q := cls.acc.Observe(est, st.Out)
		nObs++
		if st.Out > est {
			nUnder++
		}
		if q > worstQ {
			worstQ, worstOp = q, st.Op
		}
		if math.Float64bits(q) > cls.worstQBits.Load() {
			o.recordOffender(cls, expr, st.Op, est, st.Out, q)
		}
	}
	obs.CostObservations.Add(nObs)
	obs.CostUnderestimates.Add(nUnder)
	return worstOp, worstQ
}

// recordOffender replaces the class's worst offender if q still exceeds
// it under the lock. Rare: only fires while the running maximum grows.
func (o *CostObservatory) recordOffender(cls *costClass, expr string, s *plan.Step, est, act uint64, q float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if math.Float64bits(q) <= cls.worstQBits.Load() {
		return
	}
	cls.worst = CostOffender{Expr: expr, Op: s.Label(), Est: est, Act: act, QError: q}
	cls.worstQBits.Store(math.Float64bits(q))
}

// Profile snapshots every populated class, sorted worst-first (p95,
// then sample count).
func (o *CostObservatory) Profile() CostProfile {
	var p CostProfile
	o.mu.Lock()
	for i := range o.cells {
		cls := o.cells[i].Load()
		if cls == nil {
			continue
		}
		snap := cls.acc.Snapshot()
		if snap.Count == 0 {
			continue
		}
		p.Classes = append(p.Classes, CostClassProfile{
			Axis:           cls.axis.String(),
			Rewrite:        cls.prov,
			Samples:        snap.Count,
			Underestimates: snap.Under,
			P50:            snap.Quantile(0.50),
			P95:            snap.Quantile(0.95),
			Max:            snap.Max,
			Worst:          cls.worst,
		})
		p.Observations += snap.Count
		p.Underestimates += snap.Under
	}
	o.mu.Unlock()
	sort.Slice(p.Classes, func(i, j int) bool {
		a, b := p.Classes[i], p.Classes[j]
		if a.P95 != b.P95 {
			return a.P95 > b.P95
		}
		if a.Samples != b.Samples {
			return a.Samples > b.Samples
		}
		if a.Axis != b.Axis {
			return a.Axis < b.Axis
		}
		return a.Rewrite < b.Rewrite
	})
	return p
}

// WriteText renders the profile as an aligned human-readable table.
func (p CostProfile) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cost-model observatory: %d observations, %d underestimates\n",
		p.Observations, p.Underestimates)
	if len(p.Classes) == 0 {
		fmt.Fprintln(w, "(no observations yet)")
		return
	}
	fmt.Fprintf(w, "%-18s %-20s %9s %7s %8s %8s %10s\n",
		"AXIS", "REWRITE", "SAMPLES", "UNDER", "P50", "P95", "MAX")
	for _, c := range p.Classes {
		rw := c.Rewrite
		if rw == "" {
			rw = "(compiler)"
		}
		fmt.Fprintf(w, "%-18s %-20s %9d %7d %8.1f %8.1f %10.1f\n",
			c.Axis, rw, c.Samples, c.Underestimates, c.P50, c.P95, c.Max)
	}
	fmt.Fprintln(w, "\nworst offenders:")
	for _, c := range p.Classes {
		if c.Worst.QError < 2 {
			continue
		}
		rw := c.Rewrite
		if rw == "" {
			rw = "(compiler)"
		}
		fmt.Fprintf(w, "  %s/%s: q=%.1f est=%d act=%d op=%q expr=%q\n",
			c.Axis, rw, c.Worst.QError, c.Worst.Est, c.Worst.Act, c.Worst.Op, c.Worst.Expr)
	}
}

// writeProm renders the profile as Prometheus exposition text with
// axis/rewrite labels, appended to the engine's metrics page.
func (p CostProfile) writeProm(w io.Writer) {
	if len(p.Classes) == 0 {
		return
	}
	families := []struct {
		name, help string
		value      func(c CostClassProfile) float64
	}{
		{"vamana_cost_class_samples", "Q-error observations folded per operator class.",
			func(c CostClassProfile) float64 { return float64(c.Samples) }},
		{"vamana_cost_class_underestimates", "Observations where the actual exceeded the estimate.",
			func(c CostClassProfile) float64 { return float64(c.Underestimates) }},
		{"vamana_cost_class_qerror_p50", "Median q-error (power-of-two bucket upper bound).",
			func(c CostClassProfile) float64 { return c.P50 }},
		{"vamana_cost_class_qerror_p95", "95th-percentile q-error (power-of-two bucket upper bound).",
			func(c CostClassProfile) float64 { return c.P95 }},
		{"vamana_cost_class_qerror_max", "Largest q-error observed.",
			func(c CostClassProfile) float64 { return c.Max }},
	}
	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", f.name, f.help, f.name)
		for _, c := range p.Classes {
			fmt.Fprintf(w, "%s{axis=%q,rewrite=%q} %g\n", f.name, c.Axis, c.Rewrite, f.value(c))
		}
	}
}
