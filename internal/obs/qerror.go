package obs

// Q-error accumulators for the cost-model observatory: lock-free striped
// histograms over the multiplicative estimation error
//
//	q = max(est/act, act/est) >= 1
//
// in power-of-two buckets, mirroring the latency Histogram's layout. An
// accumulator is a plain data structure, not a registered metric: the
// cost observatory keys one per operator class (axis × rewrite-rule
// provenance) per engine, and the engine's exposition writes them out as
// labeled series. Observations are two or three atomic adds into the
// caller's stripe.

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// qerrBuckets is the number of power-of-two q-error buckets: bucket i
// counts observations with q in [2^i, 2^(i+1)), so bucket 0 is the
// within-2x band and bucket 23 absorbs errors beyond 8 million x.
const qerrBuckets = 24

// qerrStripe keeps one writer group's buckets on its own cache lines
// (trailing pad rounds the struct to a cache-line multiple).
type qerrStripe struct {
	buckets [qerrBuckets]atomic.Uint64
	under   atomic.Uint64 // observations with act > est (upper-bound miss)
	_       [48]byte
}

// QErrorAccum accumulates q-error observations for one operator class.
// The zero value is ready to use. Safe for concurrent use.
type QErrorAccum struct {
	stripes [numStripes]qerrStripe
	// maxBits holds the float64 bits of the largest q observed (q >= 1,
	// so the bit patterns order like the values and a CAS max works).
	maxBits atomic.Uint64
}

// QError returns the q-error of one (estimate, actual) pair:
// max(est/act, act/est), with zeroes smoothed to 1 so the ratio stays
// finite (an estimate of 0 against 8 actuals is a q-error of 8).
func QError(est, act uint64) float64 {
	e, a := est, act
	if e == 0 {
		e = 1
	}
	if a == 0 {
		a = 1
	}
	if e >= a {
		return float64(e) / float64(a)
	}
	return float64(a) / float64(e)
}

// Observe records one estimated-vs-actual cardinality pair and returns
// its q-error.
func (h *QErrorAccum) Observe(est, act uint64) float64 {
	e, a := est, act
	if e == 0 {
		e = 1
	}
	if a == 0 {
		a = 1
	}
	var ratio uint64
	under := a > e
	if under {
		ratio = a / e
	} else {
		ratio = e / a
	}
	// floor(log2(floor(x))) == floor(log2(x)) for x >= 1, so the integer
	// ratio lands in the same power-of-two bucket as the real one.
	b := bits.Len64(ratio) - 1
	if b >= qerrBuckets {
		b = qerrBuckets - 1
	}
	s := &h.stripes[stripeIdx()]
	s.buckets[b].Add(1)
	if under {
		s.under.Add(1)
	}
	q := QError(est, act)
	qb := math.Float64bits(q)
	for {
		cur := h.maxBits.Load()
		if qb <= cur || h.maxBits.CompareAndSwap(cur, qb) {
			break
		}
	}
	return q
}

// QErrorSnapshot is a point-in-time copy of an accumulator's state.
type QErrorSnapshot struct {
	Count   uint64
	Under   uint64 // observations where the actual exceeded the estimate
	Max     float64
	Buckets [qerrBuckets]uint64 // Buckets[i]: q in [2^i, 2^(i+1))
}

// Snapshot folds the stripes into a consistent-enough copy.
func (h *QErrorAccum) Snapshot() QErrorSnapshot {
	var s QErrorSnapshot
	for i := range h.stripes {
		st := &h.stripes[i]
		for j := range st.buckets {
			n := st.buckets[j].Load()
			s.Buckets[j] += n
			s.Count += n
		}
		s.Under += st.under.Load()
	}
	if b := h.maxBits.Load(); b != 0 {
		s.Max = math.Float64frombits(b)
	}
	return s
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed q-errors at power-of-two resolution: the top of the bucket
// containing the quantile. Zero when empty, never below 1 otherwise.
func (s QErrorSnapshot) Quantile(q float64) float64 {
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
			return float64(uint64(1) << uint(i+1))
		}
	}
	return float64(uint64(1) << uint(qerrBuckets))
}
