package core

// The cost-model observatory: online estimated-vs-actual cardinality
// accuracy tracking, and the optional calibration feedback loop.
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
// Calibration (Options.CostCalibration) additionally maintains a
// per-class EWMA of log2(act/raw_est) — a running geometric mean of the
// model's multiplicative error — and exposes 2^EWMA (clamped to at most
// 1) as a correction factor applied inside cost estimation. Learning
// always reads Cost.RawOut, the pre-correction bound, so the loop never
// feeds on its own output. When a class's EWMA drifts more than
// calibDrift log2-units past the value it last published, the
// triggering document's statistics epoch is bumped, which invalidates
// cached plans and probe memos through the machinery updates already
// use. A plan-regression sentinel counts compiles where the calibrated
// cost model ranked a different plan cheapest than the raw model would
// have — the signal that calibration is actually changing decisions.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vamana/internal/exec"
	"vamana/internal/mass"
	"vamana/internal/obs"
	"vamana/internal/opt"
	"vamana/internal/plan"
)

const (
	// calibAlpha is the EWMA smoothing constant: one observation moves
	// the running log-error 10% of the way toward itself.
	calibAlpha = 0.1
	// calibDrift is the log2 distance the EWMA must move from its last
	// published value before the statistics epoch is bumped (0.75 ≈ a
	// 1.7x change in the correction factor).
	calibDrift = 0.75
	// calibMinFactor floors the correction so a run of zero-result
	// queries cannot collapse every estimate to 1.
	calibMinFactor = 1.0 / 1024
)

// unseededBits marks an EWMA cell that has not absorbed a sample yet
// (NaN cannot arise from learning, which only stores finite values).
var unseededBits = math.Float64bits(math.NaN())

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
	Factor         float64      `json:"calibration_factor"` // applied correction; 1 = none
	Worst          CostOffender `json:"worst"`
}

// CostProfile is a point-in-time view of the observatory.
type CostProfile struct {
	Classes            []CostClassProfile `json:"classes"`
	Observations       uint64             `json:"observations"`
	Underestimates     uint64             `json:"underestimates"`
	CalibrationEnabled bool               `json:"calibration_enabled"`
	EpochBumps         uint64             `json:"epoch_bumps"`
	PlanRegressions    uint64             `json:"plan_regressions"`
}

// costClass is one axis × provenance accumulator cell.
type costClass struct {
	axis mass.Axis
	prov string
	acc  obs.QErrorAccum

	// Calibration state. ewmaBits holds the float64 bits of the running
	// EWMA of log2(act/raw_est); lastBumpBits the EWMA value at the last
	// epoch bump (zero value = 0.0, the uncalibrated baseline).
	ewmaBits     atomic.Uint64
	lastBumpBits atomic.Uint64

	// worstQBits gates the slow path below: float64 bits of the largest
	// q recorded as an offender (positive floats order like their bits).
	worstQBits atomic.Uint64
	worst      CostOffender // guarded by CostObservatory.mu
}

func newCostClass(axis mass.Axis, prov string) *costClass {
	c := &costClass{axis: axis, prov: prov}
	c.ewmaBits.Store(unseededBits)
	return c
}

// factor returns the class's current multiplicative correction in
// [calibMinFactor, 1].
func (c *costClass) factor() float64 {
	b := c.ewmaBits.Load()
	if b == unseededBits {
		return 1
	}
	ew := math.Float64frombits(b)
	if ew >= 0 {
		// The raw bound held or underestimated; never inflate past it.
		return 1
	}
	f := math.Exp2(ew)
	if f < calibMinFactor {
		return calibMinFactor
	}
	return f
}

// CostObservatory accumulates est-vs-act accuracy for one engine.
type CostObservatory struct {
	store       *mass.Store
	calibrating bool

	// cells is the flat [axis][provenance] table (allocated once at
	// construction); entries are created lazily under mu and then read
	// lock-free.
	cells []atomic.Pointer[costClass]

	mu sync.Mutex // guards cell creation and per-class worst offenders

	bumps       atomic.Uint64 // calibration epoch bumps issued
	regressions atomic.Uint64 // plan-regression sentinel hits
}

func newCostObservatory(store *mass.Store, calibrating bool) *CostObservatory {
	return &CostObservatory{
		store:       store,
		calibrating: calibrating,
		cells:       make([]atomic.Pointer[costClass], mass.AxisCount*len(provNames)),
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
	c := newCostClass(axis, provNames[pi])
	o.cells[i].Store(c)
	return c
}

// fold joins the finished run's actual per-step cardinalities against
// the plan's estimates. It returns the worst-misestimated step and its
// q-error (nil, 0 when nothing was recorded) for the slow-query log.
// Allocation-free except when a class records a new worst offender.
func (o *CostObservatory) fold(it *exec.Iterator, doc mass.DocID, expr string) (*plan.Step, float64) {
	if !obs.Enabled() {
		return nil, 0
	}
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
		if o.calibrating {
			o.learn(cls, doc, st.Op.Cost.RawOut, st.Out)
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

// learn folds one (raw estimate, actual) pair into the class EWMA and
// bumps the statistics epoch when the factor has drifted.
func (o *CostObservatory) learn(cls *costClass, doc mass.DocID, rawEst, act uint64) {
	e, a := rawEst, act
	if e == 0 {
		e = 1
	}
	if a == 0 {
		a = 1
	}
	l := math.Log2(float64(a) / float64(e))
	var ew float64
	for {
		cur := cls.ewmaBits.Load()
		if cur == unseededBits {
			ew = l
		} else {
			ew = (1-calibAlpha)*math.Float64frombits(cur) + calibAlpha*l
		}
		if cls.ewmaBits.CompareAndSwap(cur, math.Float64bits(ew)) {
			break
		}
	}
	lastBits := cls.lastBumpBits.Load()
	if math.Abs(ew-math.Float64frombits(lastBits)) < calibDrift {
		return
	}
	// One goroutine wins the publish; the epoch bump invalidates cached
	// plans and probe memos for the triggering document exactly like a
	// data mutation would.
	if cls.lastBumpBits.CompareAndSwap(lastBits, math.Float64bits(ew)) {
		o.store.BumpEpoch(doc)
		o.bumps.Add(1)
		obs.CostCalibrationBumps.Inc()
	}
}

// calibrateStep is the correction hook handed to cost.Estimator: it
// scales a step's Table I OUT bound by the learned class factor.
func (o *CostObservatory) calibrateStep(s *plan.Step, out uint64) uint64 {
	pi := 0
	if s.Prov != "" {
		var ok bool
		if pi, ok = provIdx[s.Prov]; !ok {
			pi = len(provNames) - 1
		}
	}
	cls := o.cells[int(s.Axis)*len(provNames)+pi].Load()
	if cls == nil {
		return out
	}
	f := cls.factor()
	if f >= 1 {
		return out
	}
	v := uint64(float64(out)*f + 0.5)
	if v == 0 && out > 0 {
		v = 1 // keep nonzero bounds nonzero: selectivity math stays sane
	}
	return v
}

// calibrationActive reports whether any class has learned a correction
// that actually changes estimates (factor below 1). Cheap: a sweep of
// atomic pointer loads, called only on compile misses.
func (o *CostObservatory) calibrationActive() bool {
	for i := range o.cells {
		if cls := o.cells[i].Load(); cls != nil && cls.factor() < 1 {
			return true
		}
	}
	return false
}

// Profile snapshots every populated class, sorted worst-first (p95,
// then sample count).
func (o *CostObservatory) Profile() CostProfile {
	p := CostProfile{CalibrationEnabled: o.calibrating}
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
		factor := 1.0
		if o.calibrating {
			factor = cls.factor()
		}
		p.Classes = append(p.Classes, CostClassProfile{
			Axis:           cls.axis.String(),
			Rewrite:        cls.prov,
			Samples:        snap.Count,
			Underestimates: snap.Under,
			P50:            snap.Quantile(0.50),
			P95:            snap.Quantile(0.95),
			Max:            snap.Max,
			Factor:         factor,
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
	p.EpochBumps = o.bumps.Load()
	p.PlanRegressions = o.regressions.Load()
	return p
}

// WriteText renders the profile as an aligned human-readable table.
func (p CostProfile) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cost-model observatory: %d observations, %d underestimates, calibration %v\n",
		p.Observations, p.Underestimates, p.CalibrationEnabled)
	fmt.Fprintf(w, "epoch bumps %d, plan regressions %d\n", p.EpochBumps, p.PlanRegressions)
	if len(p.Classes) == 0 {
		fmt.Fprintln(w, "(no observations yet)")
		return
	}
	fmt.Fprintf(w, "%-18s %-20s %9s %7s %8s %8s %10s %7s\n",
		"AXIS", "REWRITE", "SAMPLES", "UNDER", "P50", "P95", "MAX", "FACTOR")
	for _, c := range p.Classes {
		rw := c.Rewrite
		if rw == "" {
			rw = "(compiler)"
		}
		fmt.Fprintf(w, "%-18s %-20s %9d %7d %8.1f %8.1f %10.1f %7.3f\n",
			c.Axis, rw, c.Samples, c.Underestimates, c.P50, c.P95, c.Max, c.Factor)
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
		{"vamana_cost_class_factor", "Calibration correction factor in effect (1 = none).",
			func(c CostClassProfile) float64 { return c.Factor }},
	}
	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", f.name, f.help, f.name)
		for _, c := range p.Classes {
			fmt.Fprintf(w, "%s{axis=%q,rewrite=%q} %g\n", f.name, c.Axis, c.Rewrite, f.value(c))
		}
	}
}

// planShape fingerprints a plan's operator tree, ignoring cost
// annotations: two plans with the same shape execute identically. Used
// by the plan-regression sentinel to compare the calibrated winner
// against the plan raw costs would have chosen.
func planShape(p *plan.Plan) string {
	var b strings.Builder
	writeShape(&b, p.Root)
	return b.String()
}

func writeShape(b *strings.Builder, op plan.Op) {
	b.WriteString(op.Label())
	ch := op.Children()
	if len(ch) == 0 {
		return
	}
	b.WriteByte('(')
	for i, c := range ch {
		if i > 0 {
			b.WriteByte(',')
		}
		writeShape(b, c)
	}
	b.WriteByte(')')
}
