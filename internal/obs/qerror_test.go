package obs

import (
	"math"
	"sync"
	"testing"
)

func TestQError(t *testing.T) {
	cases := []struct {
		est, act uint64
		want     float64
	}{
		{10, 10, 1},
		{100, 25, 4},
		{25, 100, 4},
		{0, 8, 8}, // zero estimate smoothed to 1
		{8, 0, 8}, // zero actual smoothed to 1
		{0, 0, 1}, // both zero: perfect
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := QError(c.est, c.act); got != c.want {
			t.Errorf("QError(%d, %d) = %g, want %g", c.est, c.act, got, c.want)
		}
	}
}

func TestQErrorAccumBuckets(t *testing.T) {
	var h QErrorAccum
	// One observation per target bucket: q in [2^i, 2^(i+1)) lands in
	// bucket i, on both the over- and under-estimate sides.
	h.Observe(1, 1)   // q=1     -> bucket 0
	h.Observe(3, 1)   // q=3     -> bucket 1
	h.Observe(1, 3)   // q=3     -> bucket 1, underestimate
	h.Observe(100, 3) // q=33.3  -> bucket 5
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Under != 1 {
		t.Errorf("under = %d, want 1", s.Under)
	}
	for i, want := range map[int]uint64{0: 1, 1: 2, 5: 1} {
		if s.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i], want)
		}
	}
	if got := s.Max; math.Abs(got-100.0/3.0) > 1e-9 {
		t.Errorf("max = %g, want 33.33", got)
	}
}

func TestQErrorQuantile(t *testing.T) {
	var h QErrorAccum
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g, want 0", q)
	}
	// 90 observations at q=1, 10 at q in [8,16): p50 sits in bucket 0
	// (upper bound 2), p95 in bucket 3 (upper bound 16).
	for i := 0; i < 90; i++ {
		h.Observe(5, 5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(9, 1)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.50); got != 2 {
		t.Errorf("p50 = %g, want 2", got)
	}
	if got := s.Quantile(0.95); got != 16 {
		t.Errorf("p95 = %g, want 16", got)
	}
	if got := s.Quantile(1.0); got != 16 {
		t.Errorf("p100 = %g, want 16", got)
	}
}

func TestQErrorAccumObserve(t *testing.T) {
	var h QErrorAccum
	if q := h.Observe(100, 1); q != 100 {
		t.Errorf("Observe returned %g, want 100", q)
	}
	if s := h.Snapshot(); s.Count != 1 || s.Max != 100 {
		t.Errorf("Observe recorded %+v, want one pair with max 100", s)
	}
}

func TestQErrorAccumOverflowBucket(t *testing.T) {
	var h QErrorAccum
	h.Observe(1<<40, 1) // q ~ 10^12, far past bucket 23's lower bound
	s := h.Snapshot()
	if s.Buckets[qerrBuckets-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", s.Buckets[qerrBuckets-1])
	}
	if s.Max != float64(uint64(1)<<40) {
		t.Errorf("max = %g, want 2^40", s.Max)
	}
}

// TestQErrorAccumConcurrent hammers one accumulator from many
// goroutines; run under -race it checks the striping, and the final
// snapshot must account for every observation.
func TestQErrorAccumConcurrent(t *testing.T) {
	var h QErrorAccum
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(uint64(1+(g+i)%64), uint64(1+i%7))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	if s.Max < 1 || s.Max > 64 {
		t.Errorf("max = %g, want within [1, 64]", s.Max)
	}
}
