package vamana

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// skewedDoc is a document built to misestimate deterministically: the
// only <b> under an <a> is one of 64, so the child::b step in //a/b gets
// a Table I OUT bound of COUNT(b)=64 against an actual of 1 — a q-error
// of exactly 64.
func skewedDoc(t testing.TB, db *DB) *Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r><a><b/></a><c>")
	for i := 0; i < 63; i++ {
		sb.WriteString("<b/>")
	}
	sb.WriteString("</c></r>")
	doc, err := db.LoadXMLString("skewed", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestCostObservatoryProfile(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)

	if p := db.CostProfile(); p.Observations != 0 {
		t.Fatalf("fresh database already has %d observations", p.Observations)
	}

	// Cold and warm passes: the fold must fire on cache hits too.
	for pass := 0; pass < 2; pass++ {
		for _, expr := range workloadExprs {
			drainCount(t, db, doc, expr)
		}
	}

	p := db.CostProfile()
	if p.Observations == 0 || len(p.Classes) == 0 {
		t.Fatalf("observatory empty after workload: %+v", p)
	}
	var sum uint64
	for i, c := range p.Classes {
		sum += c.Samples
		if c.Samples == 0 {
			t.Errorf("class %s/%q has zero samples", c.Axis, c.Rewrite)
		}
		if c.P50 < 1 || c.P95 < c.P50 || c.Max < 1 {
			t.Errorf("class %s/%q has inconsistent quantiles: %+v", c.Axis, c.Rewrite, c)
		}
		if i > 0 && p.Classes[i-1].P95 < c.P95 {
			t.Errorf("classes not sorted worst-first: %g before %g", p.Classes[i-1].P95, c.P95)
		}
	}
	if sum != p.Observations {
		t.Errorf("class samples sum to %d, profile says %d", sum, p.Observations)
	}

	// At least one xmark workload step misestimates enough to record a
	// worst offender with its expression.
	anyOffender := false
	for _, c := range p.Classes {
		if c.Worst.QError >= 2 && c.Worst.Expr != "" && c.Worst.Op != "" {
			anyOffender = true
		}
	}
	if !anyOffender {
		t.Error("no worst offender recorded across the workload")
	}

	// The text rendering carries the same totals.
	var txt bytes.Buffer
	p.WriteText(&txt)
	if !strings.Contains(txt.String(), "cost-model observatory") ||
		!strings.Contains(txt.String(), "AXIS") {
		t.Errorf("WriteText output malformed:\n%s", txt.String())
	}
}

func TestCostDebugEndpointsAndMetrics(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)
	for _, expr := range workloadExprs {
		drainCount(t, db, doc, expr)
	}
	h := db.DebugHandler("/debug/vamana")

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/debug/vamana/cost")
	if rec.Code != 200 {
		t.Fatalf("/cost status %d", rec.Code)
	}
	var p CostProfile
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("/cost JSON: %v", err)
	}
	if p.Observations == 0 || len(p.Classes) == 0 {
		t.Errorf("/cost JSON empty: %+v", p)
	}

	rec = get("/debug/vamana/cost?format=text")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "cost-model observatory") {
		t.Errorf("/cost?format=text status %d body %q", rec.Code, rec.Body.String())
	}

	// The index page links every endpoint including the pprof mounts.
	rec = get("/debug/vamana/")
	if rec.Code != 200 {
		t.Fatalf("index status %d", rec.Code)
	}
	for _, link := range []string{"/debug/vamana/cost", "/debug/vamana/metrics", "/debug/pprof/"} {
		if !strings.Contains(rec.Body.String(), link) {
			t.Errorf("index page missing link %q", link)
		}
	}

	// The stdlib pprof handlers are live on the same handler.
	rec = get("/debug/pprof/")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ status %d", rec.Code)
	}
	rec = get("/debug/pprof/cmdline")
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", rec.Code)
	}

	// The Prometheus exposition carries the labeled class series, and
	// none of the deleted calibration series.
	var prom bytes.Buffer
	if err := db.WriteMetrics(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"vamana_cost_observations_total",
		"vamana_cost_class_samples{axis=",
		"vamana_cost_class_qerror_p95{axis=",
	} {
		if !strings.Contains(prom.String(), series) {
			t.Errorf("metrics exposition missing %q", series)
		}
	}
	for _, gone := range []string{
		"vamana_cost_class_factor",
		"vamana_cost_calibration_epoch_bumps_total",
		"vamana_cost_plan_regressions_total",
	} {
		if strings.Contains(prom.String(), gone) {
			t.Errorf("metrics exposition still carries deleted series %q", gone)
		}
	}
}

// TestSlowQueryWorstOpAnnotation drives a deterministically misestimated
// query through a 1ns slow threshold and checks the ring entry names the
// worst operator.
func TestSlowQueryWorstOpAnnotation(t *testing.T) {
	var buf bytes.Buffer
	db, err := Open(Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	doc := skewedDoc(t, db)

	if n := drainCount(t, db, doc, "//a/b"); n != 1 {
		t.Fatalf("//a/b returned %d results, want 1", n)
	}
	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow queries recorded")
	}
	sq := slow[0]
	if sq.WorstOp == "" || sq.WorstQErr < 2 {
		t.Fatalf("slow entry missing worst-op annotation: %+v", sq)
	}
	if !strings.Contains(sq.WorstOp, "b") {
		t.Errorf("worst op %q does not name the misestimated step", sq.WorstOp)
	}
	if !strings.Contains(buf.String(), "worstop=") || !strings.Contains(buf.String(), "qerr=") {
		t.Errorf("slow log line missing miscost annotation: %q", buf.String())
	}
}

// TestCostObservatoryConcurrentFolds exercises the striped accumulators
// and lazy class creation from many goroutines at once, with committing
// updates to the skewed document bumping its statistics epoch (and
// invalidating its cached plans) underneath the folds; its real
// assertions are the race detector's.
func TestCostObservatoryConcurrentFolds(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.003)
	skew := skewedDoc(t, db)
	skewRoot, err := queryKeys(db, skew, "/r")
	if err != nil || len(skewRoot) != 1 {
		t.Fatalf("skewed root: %v %v", skewRoot, err)
	}

	want := make([]int, len(workloadExprs))
	for i, expr := range workloadExprs {
		want[i] = drainCount(t, db, doc, expr)
	}
	wantSkew := drainCount(t, db, skew, "//a/b")

	const goroutines, perG = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if (g+i)%4 == 0 {
					// An <e/> leaves //a/b's result alone but commits a
					// change to the document, so its epoch moves.
					if err := db.Update(func(tx *Txn) error {
						_, err := tx.InsertElement(skew, skewRoot[0], -1, "e")
						return err
					}); err != nil {
						errs <- err
						return
					}
					res, err := db.Query(skew, "//a/b")
					if err != nil {
						errs <- err
						return
					}
					n := 0
					for res.Next() {
						n++
					}
					if n != wantSkew {
						t.Errorf("concurrent skew query returned %d, want %d", n, wantSkew)
					}
					continue
				}
				qi := (g + i) % len(workloadExprs)
				res, err := db.Query(doc, workloadExprs[qi])
				if err != nil {
					errs <- err
					return
				}
				n := 0
				for res.Next() {
					n++
				}
				if err := res.Err(); err != nil {
					errs <- err
					return
				}
				if n != want[qi] {
					t.Errorf("concurrent query %q returned %d, want %d", workloadExprs[qi], n, want[qi])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	p := db.CostProfile()
	if p.Observations == 0 {
		t.Fatalf("observatory empty after concurrent load: %+v", p)
	}
	// Profile under concurrent load must stay internally consistent.
	var sum uint64
	for _, c := range p.Classes {
		sum += c.Samples
	}
	if sum != p.Observations {
		t.Errorf("class samples sum %d != observations %d", sum, p.Observations)
	}
}

// TestCostObservatoryClassesParity pins the observatory's q-error classes
// after one pass of Q1-Q5 on the factor-0.01 auction document to what the
// commit before the positioned scanners (ce7bc69) folded: the classes are
// est-vs-act over operator tuple counts, and neither side of that ratio
// may move when only the cost of a bind changes.
func TestCostObservatoryClassesParity(t *testing.T) {
	db := openDB(t)
	doc := loadAuction(t, db, 0.01)
	for _, expr := range workloadExprs {
		drainCount(t, db, doc, expr)
	}
	p := db.CostProfile()
	var got []string
	for _, c := range p.Classes {
		got = append(got, fmt.Sprintf("%s/%q samples=%d p50=%g p95=%g max=%g under=%d",
			c.Axis, c.Rewrite, c.Samples, c.P50, c.P95, c.Max, c.Underestimates))
	}
	want := []string{
		`child/"parent-inversion" samples=1 p50=4 p95=4 max=3.5441176470588234 under=0`,
		`child/"upward-exist-dedup" samples=1 p50=4 p95=4 max=2.1264367816091956 under=0`,
		`following-sibling/"" samples=1 p50=4 p95=4 max=2.2371134020618557 under=0`,
		`parent/"" samples=1 p50=4 p95=4 max=2.2371134020618557 under=0`,
		`descendant/"child-pushdown" samples=2 p50=2 p95=2 max=1 under=0`,
		`parent/"child-pushdown" samples=2 p50=2 p95=2 max=1 under=0`,
		`ancestor/"" samples=1 p50=2 p95=2 max=1 under=0`,
		`ancestor-or-self/"upward-exist-dedup" samples=1 p50=2 p95=2 max=1 under=0`,
		`descendant/"" samples=1 p50=2 p95=2 max=1 under=0`,
		`descendant/"upward-exist-dedup" samples=1 p50=2 p95=2 max=1 under=0`,
		`parent/"value-index" samples=1 p50=2 p95=2 max=1 under=0`,
		`value/"value-index" samples=1 p50=2 p95=2 max=1 under=0`,
	}
	if p.Observations != 14 || !slices.Equal(got, want) {
		t.Errorf("q-error classes moved (%d observations):\n got:\n%s\nwant:\n%s",
			p.Observations, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
