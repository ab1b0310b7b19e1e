package main

// This is the only file of the benchmark that reaches below the root
// package's API, and only the traced run uses it. It times calls into
// each module's public functions from outside; nothing is recorded inside
// the engine. It stays clear of AdoptCache, the decoded-node cache's
// knobs and every Deprecated wrapper, so that removing them does not
// break the benchmark.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vamana"
	"vamana/internal/btree"
	"vamana/internal/core"
	"vamana/internal/cost"
	"vamana/internal/exec"
	"vamana/internal/flex"
	"vamana/internal/govern"
	"vamana/internal/mass"
	"vamana/internal/opt"
	"vamana/internal/pager"
	"vamana/internal/plan"
	"vamana/internal/serve"
	"vamana/internal/xmldoc"
	"vamana/internal/xpath"
)

// layerInput is what the traced run hands over after its windows.
type layerInput struct {
	src   string
	exprs []string // the workload's queries: what the ladder climbs with
	// fresh, when set, yields a never-seen expression (compile_cold);
	// compile timings then use it instead of exprs.
	fresh      func() string
	fileBacked bool
	cachePages int // >0: reopen the private store with this page cache
	dir        string
	db         *vamana.DB
	doc        *vamana.Document
	persons    []string // update targets for vamana.update_us
	timer      timer
}

// timer says how long best measures: rounds rounds, each giving every
// function about budget of timed calls.
type timer struct {
	rounds int
	budget time.Duration
}

// timing is the outcome of best for one function.
type timing struct {
	ns     float64
	allocs float64
	bytes  float64
}

// best times the functions against each other: in every round each is
// called n times, taking turns call by call, every call timed on its
// own; a function's figure is its best round's mean. Whatever disturbs
// the machine during a round falls on all of them alike, so their
// differences stay meaningful. Allocations are counted in a round of
// their own, outside the timing.
func (tm timer) best(fns ...func() error) ([]timing, error) {
	var once time.Duration
	for _, fn := range fns {
		if err := fn(); err != nil { // untimed: first use
			return nil, err
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		once += time.Since(t0)
	}
	n := 1
	if budget := tm.budget * time.Duration(len(fns)); once > 0 && once < budget {
		n = min(int(budget/once), 5000)
	}
	out := make([]timing, len(fns))
	sum := make([]time.Duration, len(fns))
	for r := 0; r < tm.rounds; r++ {
		// Start every round with the garbage of the last one collected.
		runtime.GC()
		clear(sum)
		for k := 0; k < n; k++ {
			for j := range fns {
				i := (k + j) % len(fns)
				// Each timed call follows an untimed one of the same
				// function: the functions run on different engines, and the
				// one called after a neighbour on its own engine would find
				// the processor's caches warm where the others do not.
				if err := fns[i](); err != nil {
					return nil, err
				}
				t0 := time.Now()
				if err := fns[i](); err != nil {
					return nil, err
				}
				sum[i] += time.Since(t0)
			}
		}
		for i, d := range sum {
			if ns := float64(d) / float64(n); r == 0 || ns < out[i].ns {
				out[i].ns = ns
			}
		}
	}
	for i, fn := range fns {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := 0; k < n; k++ {
			if err := fn(); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&m1)
		out[i].allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		out[i].bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}
	return out, nil
}

// best1 is best for a single function.
func (tm timer) best1(fn func() error) (timing, error) {
	t, err := tm.best(fn)
	if err != nil {
		return timing{}, err
	}
	return t[0], nil
}

// privateEngine loads src into an engine of the workload's kind of store
// that the benchmark owns, so that exec and core can be called directly.
func privateEngine(in layerInput, name string, opts core.Options) (*core.Engine, mass.DocID, time.Duration, func(), error) {
	cleanup := func() {}
	if in.fileBacked {
		path, err := scratchFile(in.dir, name)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		opts.Path = path
		cleanup = func() { os.Remove(path) }
	}
	eng, err := core.Open(opts)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	t0 := time.Now()
	id, err := eng.LoadString(docName, in.src)
	load := time.Since(t0)
	if err == nil && in.cachePages > 0 {
		if err = eng.Close(); err == nil {
			opts.CachePages = in.cachePages
			if eng, err = core.Open(opts); err == nil {
				var ok bool
				if id, ok = eng.Store().DocID(docName); !ok {
					err = fmt.Errorf("layers: %s lost its document on reopen", name)
				}
			}
		}
	}
	if err != nil {
		if eng != nil {
			eng.Close()
		}
		cleanup()
		return nil, 0, 0, nil, err
	}
	return eng, id, load, func() { eng.Close(); cleanup() }, nil
}

// measureLayers returns the per-layer metrics that are timed from
// outside: the micro timings of each module's public calls and the
// ladder, the same queries timed at every boundary from the operator
// tree up to the loopback socket.
func measureLayers(in layerInput) (map[string]float64, error) {
	m := map[string]float64{}
	eng, id, load, closeEng, err := privateEngine(in, "ladder", core.Options{})
	if err != nil {
		return nil, err
	}
	defer closeEng()
	st := eng.Store()
	m["mass.load_ns_per_byte"] = float64(load) / float64(len(in.src))

	if err := ladder(in, eng, id, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := compileLayers(in, eng, id, m); err != nil {
		return nil, fmt.Errorf("compile layers: %w", err)
	}
	if err := storageLayers(in, st, id, m); err != nil {
		return nil, fmt.Errorf("storage layers: %w", err)
	}
	return m, nil
}

// drainIter runs an exec iterator to its end and, when first is set,
// adds to it the time from t0 to the first tuple.
func drainIter(it *exec.Iterator, err error, first *time.Duration, t0 time.Time) error {
	if err != nil {
		return err
	}
	more := it.Next()
	if first != nil {
		*first += time.Since(t0)
	}
	for more {
		more = it.Next()
	}
	err = it.Err()
	it.Close()
	return err
}

type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

func ladder(in layerInput, eng *core.Engine, id mass.DocID, m map[string]float64) error {
	ctx := context.Background()
	st := eng.Store()
	srv, err := serve.New(serve.Config{DB: in.db})
	if err != nil {
		return err
	}
	base, stop, err := startServer(in.db)
	if err != nil {
		return err
	}
	defer stop()
	rc := &remoteClient{
		c:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		br: newLineReader(),
	}
	defer rc.c.CloseIdleConnections()

	flight, fid, _, closeFlight, err := privateEngine(in, "ladder_flight", core.Options{FlightRecorderSize: 64})
	if err != nil {
		return err
	}
	defer closeFlight()

	limits := vamana.WithLimits(vamana.Limits{
		Timeout: time.Hour, MaxResults: 1 << 40, MaxPagesRead: 1 << 40, MaxDecodedRecords: 1 << 40,
	})

	// Sums over the workload's queries; divided by their number at the end,
	// so each rung is the time of an average operation of the mix.
	var execT, coreT, vamT, handT, httpT, limT, flightT timing
	var execFirst, tuples, results float64
	for _, expr := range in.exprs {
		q, err := eng.CompileOptimized(id, expr)
		if err != nil {
			return err
		}
		p := q.Plan()

		var first time.Duration
		calls := 0
		coreRun := func(e *core.Engine, d mass.DocID) func() error {
			return func() error {
				it, err := e.QueryContext(ctx, d, expr, govern.Limits{})
				return drainIter(it, err, nil, time.Time{})
			}
		}
		vamRun := func(opts ...vamana.QueryOption) func() error {
			return func() error {
				res, err := in.db.QueryContext(ctx, in.doc, expr, opts...)
				if err != nil {
					return err
				}
				for res.Next() {
				}
				return res.Err()
			}
		}
		target := queryURL("", expr, false)
		dw := &discard{h: http.Header{}}
		u := queryURL(base, expr, false)
		// The engine's rungs and the server's are timed in two groups: a
		// server rung leaves megabytes of garbage per call behind, and the
		// rung after it would pay for that.
		t, err := in.timer.best(
			// exec: the operator tree with a precompiled plan.
			func() error {
				calls++
				t0 := time.Now()
				it, err := exec.Run(p, exec.Context{Store: st, Doc: id})
				return drainIter(it, err, &first, t0)
			},
			// core: plan-cache look-up, finish hook and metrics around exec.
			coreRun(eng, id),
			coreRun(flight, fid),
			// vamana: the public call on the workload's own database.
			vamRun(),
			vamRun(limits),
		)
		if err != nil {
			return fmt.Errorf("%s: %w", expr, err)
		}
		ts, err := in.timer.best(
			// serve handler: the daemon's request path without a socket.
			func() error {
				clear(dw.h)
				srv.Handler().ServeHTTP(dw, httptest.NewRequest(http.MethodGet, target, nil))
				return nil
			},
			// serve over loopback: one keep-alive connection.
			func() error { return rc.get(u, nil).err },
		)
		if err != nil {
			return fmt.Errorf("%s: %w", expr, err)
		}
		t = append(t, ts...)
		for i, dst := range []*timing{&execT, &coreT, &flightT, &vamT, &limT, &handT, &httpT} {
			dst.ns += t[i].ns
			dst.allocs += t[i].allocs
			dst.bytes += t[i].bytes
		}
		// first accumulates over every call best made, calibration and
		// allocation rounds included: a mean, not a best.
		execFirst += float64(first) / float64(calls)

		it, err := exec.Run(p, exec.Context{Store: st, Doc: id})
		if err != nil {
			return err
		}
		for it.Next() {
		}
		for _, s := range it.Stats() {
			tuples += float64(s.Out)
		}
		results += float64(it.Results())
		it.Close()
	}
	n := float64(len(in.exprs))
	us := func(t timing) float64 { return t.ns / n / 1e3 }
	m["exec.run_us"] = us(execT)
	m["exec.first_us"] = execFirst / n / 1e3
	m["exec.allocs_per_op"] = execT.allocs / n
	if results > 0 {
		m["exec.tuples_per_result"] = tuples / results
	}
	m["core.run_us"] = us(coreT)
	m["core.overhead_us"] = us(coreT) - us(execT)
	m["core.allocs_per_op"] = coreT.allocs / n
	m["vamana.run_us"] = us(vamT)
	m["vamana.overhead_us"] = us(vamT) - us(coreT)
	m["vamana.allocs_per_op"] = vamT.allocs / n
	m["vamana.bytes_per_op"] = vamT.bytes / n
	m["serve.handler_us"] = us(handT)
	m["serve.handler_overhead_us"] = us(handT) - us(vamT)
	m["serve.http_us"] = us(httpT)
	m["serve.socket_overhead_us"] = us(httpT) - us(handT)
	m["serve.allocs_per_op"] = handT.allocs / n
	m["govern.limits_overhead_ratio"] = limT.ns / vamT.ns
	m["obs.flight_recorder_overhead_ratio"] = flightT.ns / coreT.ns

	// What the server itself reports for a short run of requests.
	before := srvStats(base, rc)
	var waits, ttfbs []float64
	var lines float64
	const requests = 60
	for i := 0; i < requests; i++ {
		u := queryURL(base, in.exprs[i%len(in.exprs)], false)
		t0 := time.Now()
		r := rc.get(u, nil)
		if r.err != nil {
			continue // counted below through the server's rejected counter
		}
		if d, err := time.ParseDuration(rc.queueWait); err == nil {
			waits = append(waits, float64(d)/1e3)
		}
		ttfbs = append(ttfbs, float64(r.tFirst.Sub(t0))/1e3)
		lines += float64(r.n)
	}
	after := srvStats(base, rc)
	m["serve.queue_wait_p50_us"] = median(waits)
	m["serve.ttfb_p50_us"] = median(ttfbs)
	m["serve.rejected_share"] = float64(after.Rejected-before.Rejected) / requests
	if lines > 0 {
		m["serve.bytes_per_result"] = float64(after.BytesStreamed-before.BytesStreamed) / lines
	}

	// core.snapshot_us: pinning and releasing a read snapshot.
	t, err := in.timer.best1(func() error {
		sn, err := eng.Snapshot()
		if err != nil {
			return err
		}
		return sn.Close()
	})
	if err != nil {
		return err
	}
	m["core.snapshot_us"] = t.ns / 1e3

	// vamana.update_us: one insert and one delete transaction on the
	// quiescent database, leaving the document as it was.
	if len(in.persons) > 0 {
		w := &pacedWriter{db: in.db, doc: in.doc, persons: in.persons, rng: rand.New(rand.NewSource(1))}
		t, err := in.timer.best1(func() error {
			if err := w.txn(); err != nil {
				return err
			}
			return w.txn()
		})
		if err != nil {
			return err
		}
		m["vamana.update_us"] = t.ns / 2 / 1e3
	}
	return nil
}

// srvStats reads the default tenant's counters from the server's own
// /v1/stats, the same numbers Server.Stats returns.
func srvStats(base string, rc *remoteClient) serve.TenantStats {
	var st serve.Stats
	resp, err := rc.c.Get(base + "/v1/stats")
	if err != nil {
		return serve.TenantStats{}
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.TenantStats{}
	}
	return st.Tenants[serve.DefaultTenantName]
}

// compileLayers times the compile pipeline stage by stage: xpath.Parse,
// plan.Build, opt.Optimize, and the engine's uncached compile over all
// three.
func compileLayers(in layerInput, eng *core.Engine, id mass.DocID, m map[string]float64) error {
	st := eng.Store()
	i := 0
	next := func() string {
		if in.fresh != nil {
			return in.fresh()
		}
		i++
		return in.exprs[i%len(in.exprs)]
	}
	probes := cost.NewMemoProbes(st)
	const n = 200
	var bestParse, bestBuild, bestOpt, bestCompile time.Duration
	var statProbes uint64
	for r := 0; r < in.timer.rounds; r++ {
		var parse, build, optimize, compile time.Duration
		p0 := st.Metrics().StatProbes
		for k := 0; k < n; k++ {
			expr := next()
			t0 := time.Now()
			ast, err := xpath.Parse(expr)
			if err != nil {
				return err
			}
			t1 := time.Now()
			p, err := plan.Build(ast)
			if err != nil {
				return err
			}
			t2 := time.Now()
			o := &opt.Optimizer{Store: st, Doc: id, Probes: probes}
			if _, err := o.Optimize(p); err != nil {
				return err
			}
			t3 := time.Now()
			parse += t1.Sub(t0)
			build += t2.Sub(t1)
			optimize += t3.Sub(t2)
		}
		statProbes = st.Metrics().StatProbes - p0
		for k := 0; k < n; k++ {
			expr := next()
			t0 := time.Now()
			if _, err := eng.CompileOptimized(id, expr); err != nil {
				return err
			}
			compile += time.Since(t0)
		}
		if r == 0 || parse < bestParse {
			bestParse = parse
		}
		if r == 0 || build < bestBuild {
			bestBuild = build
		}
		if r == 0 || optimize < bestOpt {
			bestOpt = optimize
		}
		if r == 0 || compile < bestCompile {
			bestCompile = compile
		}
	}
	m["xpath.parse_us"] = float64(bestParse) / n / 1e3
	m["plan.build_us"] = float64(bestBuild) / n / 1e3
	m["opt.optimize_us"] = float64(bestOpt) / n / 1e3
	m["core.compile_us"] = float64(bestCompile) / n / 1e3
	m["cost.stat_probes_per_compile"] = float64(statProbes) / n
	return nil
}

// storageLayers times the modules under the executor on their own:
// flex keys, the XML shredder, MASS scans and fetches, a scratch B+-tree
// filled with the document's keys, and a scratch file pager.
func storageLayers(in layerInput, st *mass.Store, id mass.DocID, m map[string]float64) error {
	// xmldoc: the shredder alone; mass.load_ns_per_byte minus this is
	// the cost of indexing.
	t, err := in.timer.best1(func() error {
		return xmldoc.Parse(strings.NewReader(in.src), func(xmldoc.Node) error { return nil })
	})
	if err != nil {
		return err
	}
	m["xmldoc.parse_ns_per_byte"] = t.ns / float64(len(in.src))

	// mass: a full descendant::* scan in key batches, index-only as //* is.
	var keys []flex.Key
	buf := make([]flex.Key, 256)
	scanAll := func(keep bool) error {
		sc := st.AxisScan(id, flex.Root, mass.AxisDescendant, mass.NodeTest{Type: mass.TestWildcard})
		for {
			n, err := sc.NextKeys(buf)
			if keep {
				keys = append(keys, buf[:n]...)
			}
			if err != nil {
				return err
			}
			if n < len(buf) {
				return nil
			}
		}
	}
	if err := scanAll(true); err != nil {
		return err
	}
	if len(keys) < 2 {
		return fmt.Errorf("layers: descendant scan returned %d keys", len(keys))
	}
	if t, err = in.timer.best1(func() error { return scanAll(false) }); err != nil {
		return err
	}
	m["mass.axis_scan_ns_per_key"] = t.ns / float64(len(keys))

	rng := rand.New(rand.NewSource(int64(len(keys))))
	probe := make([]flex.Key, 512)
	for i := range probe {
		probe[i] = keys[rng.Intn(len(keys))]
	}
	if t, err = in.timer.best1(func() error {
		for _, k := range probe {
			if _, _, err := st.Node(id, k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["mass.node_fetch_ns"] = t.ns / float64(len(probe))
	if t, err = in.timer.best1(func() error {
		_, err := st.CountName(id, "person")
		return err
	}); err != nil {
		return err
	}
	m["mass.count_name_ns"] = t.ns

	// flex: comparisons between neighbours in document order, and
	// ancestor tests between a key and its parent.
	var sink int
	pairs := float64(len(keys) - 1)
	if t, err = in.timer.best1(func() error {
		for i := 1; i < len(keys); i++ {
			sink += keys[i-1].Compare(keys[i])
		}
		return nil
	}); err != nil {
		return err
	}
	m["flex.compare_ns"] = t.ns / pairs
	parents := make([]flex.Key, len(keys))
	for i, k := range keys {
		parents[i] = k.Parent()
	}
	if t, err = in.timer.best1(func() error {
		for i, k := range keys {
			if parents[i].IsAncestorOf(k) {
				sink++
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["flex.ancestor_test_ns"] = t.ns / float64(len(keys))
	if sink == 0 {
		return fmt.Errorf("layers: flex timings saw no ancestor")
	}

	// btree: a scratch tree on a memory pager holding the document's keys.
	sorted := make([][]byte, len(keys))
	for i, k := range keys {
		sorted[i] = []byte(k)
	}
	sort.Slice(sorted, func(i, j int) bool { return string(sorted[i]) < string(sorted[j]) })
	var tree *btree.Tree
	value := []byte("12345678")
	fill := func() error {
		var err error
		if tree, err = btree.New(pager.NewMemory()); err != nil {
			return err
		}
		for _, k := range sorted {
			if _, err := tree.Put(k, value); err != nil {
				return err
			}
		}
		return nil
	}
	bestFill := time.Duration(0)
	for r := 0; r < in.timer.rounds; r++ {
		t0 := time.Now()
		if err := fill(); err != nil {
			return err
		}
		if d := time.Since(t0); r == 0 || d < bestFill {
			bestFill = d
		}
	}
	m["btree.put_ns_per_key"] = float64(bestFill) / float64(len(sorted))
	cur := tree.NewCursor()
	if t, err = in.timer.best1(func() error {
		for _, k := range probe {
			if !cur.Seek([]byte(k)) {
				return fmt.Errorf("btree: seek %q found nothing: %v", k, cur.Err())
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["btree.seek_ns"] = t.ns / float64(len(probe))
	if t, err = in.timer.best1(func() error {
		seen := 0
		cur.SeekFirst()
		cur.ScanBatch(nil, false, func(k, v []byte) bool { seen++; return true })
		if seen != len(sorted) {
			return fmt.Errorf("btree: scan saw %d of %d keys: %v", seen, len(sorted), cur.Err())
		}
		return nil
	}); err != nil {
		return err
	}
	m["btree.scan_ns_per_key"] = t.ns / float64(len(sorted))
	if t, err = in.timer.best1(func() error {
		for i := 1; i < len(probe); i++ {
			lo, hi := []byte(probe[i-1]), []byte(probe[i])
			if string(lo) > string(hi) {
				lo, hi = hi, lo
			}
			if _, err := tree.Count(lo, hi); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["btree.count_ns"] = t.ns / float64(len(probe)-1)

	return pagerLayer(in, m)
}

// pagerLayer times Write, Flush and Read on a scratch file pager.
func pagerLayer(in layerInput, m map[string]float64) error {
	const pages = 256
	path := filepath.Join(in.dir, "scratch_pager.db")
	var write, flush, read time.Duration
	buf := make([]byte, pager.PageSize)
	for r := 0; r < in.timer.rounds; r++ {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		pg, err := pager.Open(path)
		if err != nil {
			return err
		}
		ids := make([]pager.PageID, pages)
		for i := range ids {
			if ids[i], err = pg.Allocate(); err != nil {
				pg.Close()
				return err
			}
		}
		t0 := time.Now()
		for i, id := range ids {
			buf[0] = byte(i)
			if err := pg.Write(id, buf); err != nil {
				pg.Close()
				return err
			}
		}
		t1 := time.Now()
		if err := pg.Flush(); err != nil {
			pg.Close()
			return err
		}
		t2 := time.Now()
		// Reopen, so that reads come from the file and are checksummed
		// and not from the images the flush left buffered.
		if err := pg.Close(); err != nil {
			return err
		}
		if pg, err = pager.Open(path); err != nil {
			return err
		}
		t3 := time.Now()
		for _, id := range ids {
			if err := pg.Read(id, buf); err != nil {
				pg.Close()
				return err
			}
		}
		t4 := time.Now()
		if err := pg.Close(); err != nil {
			return err
		}
		if d := t1.Sub(t0); r == 0 || d < write {
			write = d
		}
		if d := t2.Sub(t1); r == 0 || d < flush {
			flush = d
		}
		if d := t4.Sub(t3); r == 0 || d < read {
			read = d
		}
	}
	os.Remove(path)
	m["pager.write_ns_per_page"] = float64(write) / pages
	m["pager.flush_us"] = float64(flush) / 1e3
	m["pager.read_ns_per_page"] = float64(read) / pages
	return nil
}
