package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"vamana"
)

// slices is the number of equal parts the measured window is cut into.
// Every timing and throughput figure is the median of the per-slice
// values, which is what makes it repeat on a shared two-core machine: a
// few noisy slices move nothing.
const slices = 10

// minSliceTail is the fewest samples a slice needs for tail figures of
// its own (see tailFactors): twenty in its slowest 5 %.
const minSliceTail = 400

// opResult is what one operation reports back to the harness: how many
// results it consumed, how many it should have, and the three instants
// after issue that the latency figures and the spans are cut from.
type opResult struct {
	n, want int
	tRun    time.Time // the call that starts the query (or the request) returned
	tFirst  time.Time // first result consumed (first NDJSON line read)
	tEnd    time.Time // last result consumed
	err     error
}

// opClass is one kind of operation in a workload's mix; latency medians
// are taken per class (see runWindow).
type opClass struct {
	name string
	expr string
	want int // expected result count; ops with a per-op expectation ignore it
}

// worker is one closed-loop client: it issues its next operation only
// after the previous one completed.
type worker struct {
	id  int
	rng *rand.Rand
	seq int // operations issued so far, for round-robin and unique literals
	// remote_hot only: one persistent connection per worker.
	remote *remoteClient

	lat   [][]uint32 // [class*slices+slice] issue → last result, ns
	first [][]uint32 // [class*slices+slice] issue → first result, ns
	ops   [slices]int
	got   uint64 // result nodes consumed by correct ops
	tried int
	fails int
	err   error // first failure, for the report
	spans []span
}

// instance is one set-up workload: a database (and for remote_hot a
// server) plus the closures that drive it.
type instance struct {
	db       *vamana.DB
	doc      *vamana.Document
	src      string // the XML source, kept until the oracle has checked it
	xmlBytes int
	classes  []opClass
	clients  int
	// spanNames label the three phases of one operation in the trace.
	spanNames [3]string
	// pick returns the class of the worker's next operation.
	pick func(w *worker) int
	do   func(w *worker, class int) opResult
	// writer, when set, runs beside the clients for the whole window on a
	// fixed schedule (mixed_rw).
	writer *pacedWriter
	// finish runs the end-of-run checks that need the database open;
	// close releases everything and, for file stores, reopens to verify.
	finish func() error
	close  func() error
	// counters, when set, replaces reading the public counters from db:
	// paged_cold sums them over its sessions.
	counters func() (vamana.StorageMetrics, vamana.CacheStats)
	// fileBacked and cachePages describe the store, for the traced run's
	// own copy of it.
	fileBacked bool
	cachePages int

	// compile_cold: per class, the document's literals, the oracle's
	// count for each, and the builder of a never-seen expression.
	templates   []coldTemplate
	literals    [][]string
	literalWant [][]int
	coldExpr    func(class, lit int) string
	// paged_cold: the point look-up and the keys it is run from.
	lookup     func(key string) ([]string, error)
	lookupKeys []string
	// remote_hot: the server's base URL and one connection per client.
	baseURL       string
	remoteClients []*remoteClient
}

// readCounters returns the engine's public counters as of now.
func (inst *instance) readCounters() (vamana.StorageMetrics, vamana.CacheStats) {
	if inst.counters != nil {
		return inst.counters()
	}
	return inst.db.StorageMetrics(), inst.db.CacheStats()
}

// window is the outcome of one measured window.
type window struct {
	attempted int
	failed    int
	firstErr  error

	opsPerS  float64
	p50      float64 // µs, geometric mean of the classes' medians
	firstP50 float64 // µs, likewise
	tail     float64 // µs, p50 times the mean of the slowest 5 % of latency over class median
	p99      float64 // µs, p50 times the 99th percentile of the same
	samples  int
	perClass []classStat

	update *updateStat // mixed_rw only

	storage0, storage1 vamana.StorageMetrics
	cache0, cache1     vamana.CacheStats
	results            uint64 // result nodes consumed by correct ops

	spans []span
}

type classStat struct {
	name          string
	n             int
	p50, firstP50 float64 // µs
}

type updateStat struct {
	n        int
	p50, p99 float64 // µs, due time → DB.Update returned
	lagP99   float64 // µs, how late the paced writer started a transaction
	txns     uint64
}

// runWindow drives inst for settle+seconds and measures the last
// `seconds` of it. With trace set every operation also leaves its spans
// in the returned window.
func runWindow(inst *instance, seed int64, settle, seconds time.Duration, trace bool) *window {
	nc := len(inst.classes)
	workers := make([]*worker, inst.clients)
	for i := range workers {
		workers[i] = &worker{
			id:    i,
			rng:   rand.New(rand.NewSource(seed*1000 + int64(i) + 1)),
			lat:   make([][]uint32, nc*slices),
			first: make([][]uint32, nc*slices),
		}
	}
	for i, rc := range inst.remoteClients {
		workers[i].remote = rc
	}

	begin := time.Now()
	winStart := begin.Add(settle)
	end := winStart.Add(seconds)
	sliceDur := seconds / slices

	win := &window{}
	stopWriter := func() {}
	if inst.writer != nil {
		stopWriter = inst.writer.start(winStart, end)
	}

	var snapOnce sync.Once
	snapStart := func() { win.storage0, win.cache0 = inst.readCounters() }
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				class := inst.pick(w)
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				if !t0.Before(winStart) {
					snapOnce.Do(snapStart)
				}
				r := inst.do(w, class)
				w.seq++
				if r.tEnd.Before(winStart) || !r.tEnd.Before(end) {
					continue // settling, or straddles the end of the window
				}
				w.tried++
				if r.err == nil && r.n != r.want {
					r.err = fmt.Errorf("%s: got %d results, oracle says %d", inst.classes[class].name, r.n, r.want)
				}
				if r.err != nil {
					w.fails++
					if w.err == nil {
						w.err = r.err
					}
					continue
				}
				s := int(r.tEnd.Sub(winStart) / sliceDur)
				w.ops[s]++
				w.got += uint64(r.n)
				i := class*slices + s
				w.lat[i] = append(w.lat[i], clampNS(r.tEnd.Sub(t0)))
				w.first[i] = append(w.first[i], clampNS(r.tFirst.Sub(t0)))
				if trace {
					w.spans = appendOpSpans(w.spans, inst.spanNames, w.id, w.seq, inst.classes[class].name, begin, t0, r)
				}
			}
		}(w)
	}
	wg.Wait()
	win.storage1, win.cache1 = inst.readCounters()
	stopWriter()

	// Merge the workers.
	var sliceOps [slices]float64
	for _, w := range workers {
		win.attempted += w.tried
		win.failed += w.fails
		win.results += w.got
		if win.firstErr == nil {
			win.firstErr = w.err
		}
		for s, n := range w.ops {
			sliceOps[s] += float64(n) / sliceDur.Seconds()
		}
		win.spans = append(win.spans, w.spans...)
	}
	win.opsPerS = median(sliceOps[:])

	// Per class: the median of the slices' medians. Across classes: the
	// geometric mean, so that a mix of 5 µs and 4 ms queries has a p50
	// that does not sit on the boundary between two of them.
	logP50, logFirst, used := 0.0, 0.0, 0
	var tail [slices][]float64 // per slice, every op's latency over its class's median
	for c := 0; c < nc; c++ {
		cs := classStat{name: inst.classes[c].name}
		var p50s, f50s []float64
		for s := 0; s < slices; s++ {
			var lat, fst []uint32
			for _, w := range workers {
				lat = append(lat, w.lat[c*slices+s]...)
				fst = append(fst, w.first[c*slices+s]...)
			}
			if len(lat) == 0 {
				continue
			}
			cs.n += len(lat)
			sortU32(lat)
			sortU32(fst)
			p50s = append(p50s, quantile(lat, 0.50))
			f50s = append(f50s, quantile(fst, 0.50))
		}
		if cs.n > 0 {
			cs.p50 = median(p50s) / 1e3
			cs.firstP50 = median(f50s) / 1e3
			logP50 += math.Log(cs.p50)
			logFirst += math.Log(cs.firstP50)
			used++
			for s := 0; s < slices; s++ {
				for _, w := range workers {
					for _, ns := range w.lat[c*slices+s] {
						tail[s] = append(tail[s], float64(ns)/1e3/cs.p50)
					}
				}
			}
		}
		win.samples += cs.n
		win.perClass = append(win.perClass, cs)
	}
	if used > 0 {
		win.p50 = math.Exp(logP50 / float64(used))
		win.firstP50 = math.Exp(logFirst / float64(used))
		tailMean, tailP99 := tailFactors(tail)
		win.tail, win.p99 = win.p50*tailMean, win.p50*tailP99
	}
	if inst.writer != nil {
		win.update = inst.writer.stat()
		win.attempted += inst.writer.tried
		win.failed += inst.writer.failed
		if win.firstErr == nil {
			win.firstErr = inst.writer.err
		}
	}
	return win
}

// tailShare is the share of the operations, the slowest ones, that
// op_tail_us averages over.
const tailShare = 0.05

// tailFactors reduces the operations' latencies, each already divided by
// its class's median and pooled over the classes, to two figures: the
// mean of the slowest tailShare, and the 99th percentile. A slice with
// at least minSliceTail samples has figures of its own and the median
// over the slices is reported; otherwise they are taken once over the
// whole window.
//
// The mean is the gated one. A percentile is only as steady as the
// distribution is flat around it, and on remote_hot the distribution has
// a cliff right at p99 (about 1.2 % of the requests meet a garbage
// collection and take ten times the median), so that the p99 of one
// commit moved by ±12 % between runs while the mean of the slowest 5 %
// moved by ±4 %.
func tailFactors(tail [slices][]float64) (mean, p99 float64) {
	figures := func(t []float64) (float64, float64) {
		sort.Float64s(t)
		k := max(int(tailShare*float64(len(t))), 1)
		sum := 0.0
		for _, v := range t[len(t)-k:] {
			sum += v
		}
		return sum / float64(k), t[int(math.Ceil(0.99*float64(len(t))))-1]
	}
	var means, p99s, all []float64
	for _, t := range tail {
		all = append(all, t...)
		if len(t) >= minSliceTail {
			m, p := figures(t)
			means, p99s = append(means, m), append(p99s, p)
		}
	}
	if len(means) == slices {
		return median(means), median(p99s)
	}
	return figures(all)
}

func clampNS(d time.Duration) uint32 {
	if d < 1 {
		return 1
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

func sortU32(v []uint32) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quantile is the nearest-rank quantile of sorted v, in the samples' unit.
func quantile(v []uint32, q float64) float64 {
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(v[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// heapLiveMB is the heap still reachable after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC() // the second pass frees what finalizers and pools released in the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
