package main

import (
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, for a fraction of a
// second on a 64 KB document, and holds the names the program emits
// against BENCHMARK.json: a refactor that breaks the benchmark's build,
// its oracle checks or its names fails here.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	sameMetrics(t, "end_to_end", sp.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", sp.PerLayer, perLayer)

	o := defaultOpts()
	o.seconds = 0.3
	o.big, o.small = 64<<10, 64<<10
	o.setups = 1
	o.dir = t.TempDir()
	o.timer = timer{rounds: 1, budget: time.Millisecond}
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			o.trace = trace
			rec := runWorkload(def, o)
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %s", def.name, trace, rec.Correct, rec.Failed, rec.Attempted, rec.Error)
				continue
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics emitted, want %d", def.name, trace, len(rec.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rec.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s: emitted %v with unit %q, want unit %q", def.name, trace, d.name, ok, m.Unit, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", def.name, d.name, m.Value)
				}
			}
		}
	}
}

func sameMetrics(t *testing.T, list string, spec []specMetric, prog []metricDef) {
	t.Helper()
	if len(spec) != len(prog) {
		t.Errorf("%s: BENCHMARK.json names %d metrics, the program emits %d", list, len(spec), len(prog))
	}
	have := map[string]string{}
	for _, d := range prog {
		have[d.name] = d.unit
	}
	for _, m := range spec {
		unit, ok := have[m.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json names %s, which the program does not emit", list, m.Name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s has unit %q in BENCHMARK.json and %q in the program", list, m.Name, m.Unit, unit)
		}
		delete(have, m.Name)
	}
	for name := range have {
		t.Errorf("%s: the program emits %s, which BENCHMARK.json does not name", list, name)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
