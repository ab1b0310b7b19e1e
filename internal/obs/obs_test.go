package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter("test_counter_basics_total", "test")
	before := c.Value()
	c.Inc()
	c.Add(4)
	if got := c.Value() - before; got != 5 {
		t.Fatalf("counter delta = %d, want 5", got)
	}
	if NewCounter("test_counter_basics_total", "dup") != c {
		t.Fatalf("duplicate registration should return the existing counter")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter("test_counter_concurrent_total", "test")
	before := c.Value()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value() - before; got != 8000 {
		t.Fatalf("counter delta = %d, want 8000", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("test_histogram_ns", "test")
	h.Observe(0)
	h.Observe(100 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	wantSum := uint64(100 + 3000 + 2000000)
	if s.SumNS != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNS, wantSum)
	}
	if q := s.Quantile(0.5); q < 100*time.Nanosecond || q > 10*time.Microsecond {
		t.Fatalf("p50 = %v, want within [100ns, 10µs]", q)
	}
	if q := s.Quantile(1.0); q < 2*time.Millisecond {
		t.Fatalf("p100 = %v, want >= 2ms", q)
	}
	if m := time.Duration(s.SumNS / s.Count); m != time.Duration(wantSum/4) {
		t.Fatalf("mean = %v, want %v", m, time.Duration(wantSum/4))
	}
}

func TestSnapshotAndWriteText(t *testing.T) {
	c := NewCounter("test_exposition_total", "exposition test counter")
	c.Add(7)
	h := NewHistogram("test_exposition_ns", "exposition test histogram")
	h.Observe(time.Microsecond)

	snap := Snapshot()
	if snap["test_exposition_total"] == 0 {
		t.Fatalf("snapshot missing counter value")
	}
	if snap["test_exposition_ns_count"] == 0 {
		t.Fatalf("snapshot missing histogram count")
	}

	var b strings.Builder
	if err := WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE test_exposition_total counter",
		"test_exposition_total 7",
		"# TYPE test_exposition_ns histogram",
		"test_exposition_ns_bucket{le=\"+Inf\"}",
		"test_exposition_ns_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
}
