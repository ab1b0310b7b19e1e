package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vamana"
	"vamana/internal/baseline/dom"
	"vamana/internal/serve"
	"vamana/internal/xmark"
)

// The paper's five queries (Figs. 12-16) and the scan shapes beside them.
const (
	exprQ1     = "//person/address"
	exprQ2     = "//watches/watch/ancestor::person"
	exprQ3     = "/descendant::name/parent::*/self::person/address"
	exprQ4     = "//itemref/following-sibling::price/parent::*"
	exprQ5     = "//province[text()='Vermont']/ancestor::person"
	exprItem   = "//item"
	exprAll    = "//*"
	exprBidder = "//open_auction/bidder"
)

var paperQueries = []opClass{
	{name: "Q1", expr: exprQ1}, {name: "Q2", expr: exprQ2}, {name: "Q3", expr: exprQ3},
	{name: "Q4", expr: exprQ4}, {name: "Q5", expr: exprQ5},
}

const docName = "auction"

// setupEnv is everything a workload's set-up may depend on. The engine
// sees only what is generated from it.
type setupEnv struct {
	seed  int64
	big   int    // bytes of the large XMark document (4 MB)
	small int    // bytes of the small one (1 MB)
	dir   string // scratch directory for page files
	nproc int
}

type workloadDef struct {
	name  string
	why   string
	setup func(env setupEnv) (*instance, error)
}

// workloads is the benchmark's fixed list; BENCHMARK.json names the same
// six and the smoke test holds the two together.
var workloads = []workloadDef{
	{"scan_hot", "cached scan-shaped drains on 4 MB in memory: btree/mass cursors do the work, the join re-bind path almost none", setupScanHot},
	{"join_hot", "cached Q2-Q4 on 4 MB in memory: one index re-bind per context tuple, so exec does the work", setupJoinHot},
	{"paged_cold", "every op opens the 4 MB file store with a cache of 1/16 of its pages, queries, closes: pager reads, checksums and node decode dominate", setupPagedCold},
	{"compile_cold", "never-seen expression on every op on 1 MB: xpath, plan, cost and opt do the work, the plan cache is bypassed", setupCompileCold},
	{"mixed_rw", "100 update txn/s on a schedule beside a closed-loop reader on a 1 MB file store: a read gain that costs commits shows", setupMixedRW},
	{"remote_hot", "cached Q1-Q5 over loopback HTTP on 1 MB: socket, net/http, admission and NDJSON dominate, the engine little", setupRemoteHot},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// xmarkSeed fixes the XMark documents: they are the benchmark's data set,
// the same in every run, like XMark's own auction.xml. A run's --seed
// drives what the load generator chooses on top of them: the order of the
// queries, the literals, the look-up keys and the update targets. Two
// documents of one size differ by a few per cent in every count, and that
// difference would show as spread between seeds in every metric.
const xmarkSeed = 1

func generate(bytes int) string {
	return xmark.GenerateString(xmark.Config{Factor: xmark.FactorForBytes(bytes), Seed: xmarkSeed})
}

// drain consumes a started query's keys to the end, noting when the
// first and the last result arrived.
func drain(res *vamana.Results, err error, want int) opResult {
	return drainWith(res, err, want, false)
}

// drainWith is drain that, with nodes set, also fetches every result's
// node from storage, as a caller that reads names and values does.
func drainWith(res *vamana.Results, err error, want int, nodes bool) opResult {
	r := opResult{want: want, tRun: time.Now(), err: err}
	if err != nil {
		r.tFirst, r.tEnd = r.tRun, r.tRun
		return r
	}
	for res.Next() {
		if nodes {
			if _, err := res.Node(); err != nil {
				res.Close()
				r.tEnd = time.Now()
				if r.n == 0 {
					r.tFirst = r.tEnd
				}
				r.err = err
				return r
			}
		}
		if r.n == 0 {
			r.tFirst = time.Now()
		}
		r.n++
	}
	r.tEnd = time.Now()
	if r.n == 0 {
		r.tFirst = r.tEnd
	}
	r.err = res.Err()
	return r
}

var embeddedSpans = [3]string{"vamana.run", "vamana.first", "vamana.drain"}

// loadMemory opens an in-memory database holding one generated document.
func loadMemory(bytes int) (*instance, *vamana.Document, error) {
	src := generate(bytes)
	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		return nil, nil, err
	}
	doc, err := db.LoadXMLString(docName, src)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	inst := &instance{db: db, doc: doc, src: src, xmlBytes: len(src), clients: 1, spanNames: embeddedSpans}
	inst.close = db.Close
	return inst, doc, nil
}

// prepareAll compiles every class once, against the document's
// statistics, through the plan cache.
func prepareAll(db *vamana.DB, doc *vamana.Document, classes []opClass) ([]*vamana.Query, error) {
	qs := make([]*vamana.Query, len(classes))
	for i, c := range classes {
		q, err := db.Prepare(c.expr, vamana.WithDocument(doc))
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", c.name, err)
		}
		qs[i] = q
	}
	return qs, nil
}

// warm runs every class a few times so that caches are filled and lazy
// set-up is done before the window; it is part of setup_s.
func (inst *instance) warm(rounds int) error {
	w := &worker{rng: rand.New(rand.NewSource(1))}
	if inst.remoteClients != nil {
		w.remote = inst.remoteClients[0]
	}
	for i := 0; i < rounds*len(inst.classes); i++ {
		if r := inst.do(w, i%len(inst.classes)); r.err != nil {
			return fmt.Errorf("warm-up %s: %w", inst.classes[i%len(inst.classes)].name, r.err)
		}
	}
	return nil
}

// roundRobin cycles through the classes in their listed order; each
// worker starts at another point of the cycle. The order is not seeded:
// which query runs after the cache-flooding //* shows in that query's
// latency, and would show as spread between seeds.
func roundRobin(inst *instance) func(*worker) int {
	n := len(inst.classes)
	return func(w *worker) int { return (w.seq + w.id) % n }
}

// setupPrepared is scan_hot and join_hot: one goroutine, every query
// prepared once and drained fully.
func setupPrepared(env setupEnv, classes []opClass) (*instance, error) {
	inst, doc, err := loadMemory(env.big)
	if err != nil {
		return nil, err
	}
	inst.classes = append([]opClass(nil), classes...)
	qs, err := prepareAll(inst.db, doc, inst.classes)
	if err != nil {
		inst.close()
		return nil, err
	}
	ctx := context.Background()
	inst.pick = roundRobin(inst)
	inst.do = func(w *worker, c int) opResult {
		res, err := qs[c].Run(ctx, doc)
		return drain(res, err, inst.classes[c].want)
	}
	return inst, inst.warmOrClose(3)
}

func (inst *instance) warmOrClose(rounds int) error {
	if err := inst.warm(rounds); err != nil {
		inst.close()
		return err
	}
	return nil
}

func setupScanHot(env setupEnv) (*instance, error) {
	return setupPrepared(env, []opClass{
		{name: "Q1", expr: exprQ1}, {name: "item", expr: exprItem},
		{name: "all", expr: exprAll}, {name: "bidder", expr: exprBidder},
	})
}

func setupJoinHot(env setupEnv) (*instance, error) {
	return setupPrepared(env, paperQueries[1:4])
}

// lookupsPerCycle is how many point look-ups paged_cold issues for each
// pass over its six queries.
const lookupsPerCycle = 16

// setupPagedCold loads the large document into a file store with the
// default cache and closes it. Every operation is then a session of its
// own: open the store with a page cache of at most 1/16 of its pages,
// run one query (or one look-up that fetches its node), close. Nothing
// the engine decoded survives from one operation to the next, so every
// operation pays pager reads, checksums and node decoding, whatever the
// engine's eviction policy is.
func setupPagedCold(env setupEnv) (*instance, error) {
	src := generate(env.big)
	path, err := scratchFile(env.dir, "paged_cold")
	if err != nil {
		return nil, err
	}
	db, err := vamana.Open(vamana.Options{Path: path})
	if err != nil {
		return nil, err
	}
	if _, err := db.LoadXMLString(docName, src); err != nil {
		db.Close()
		return nil, err
	}
	cache := max(int(db.StorageMetrics().Pager.Pages)/16, 8)
	if err := db.Close(); err != nil {
		return nil, err
	}
	open := func() (*vamana.DB, *vamana.Document, error) {
		db, err := vamana.Open(vamana.Options{Path: path, CachePages: cache})
		if err != nil {
			return nil, nil, err
		}
		doc, err := db.Document(docName)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		return db, doc, nil
	}
	// One handle stays open beside the sessions: the oracle check runs
	// every query on it, and heap_live_mb is what it holds afterwards.
	db, doc, err := open()
	if err != nil {
		return nil, err
	}
	inst := &instance{db: db, doc: doc, src: src, xmlBytes: len(src), clients: 1, spanNames: embeddedSpans,
		fileBacked: true, cachePages: cache}
	inst.close = func() error {
		err := db.Close()
		os.Remove(path)
		return err
	}
	inst.classes = append(append([]opClass(nil), paperQueries...),
		opClass{name: "all", expr: exprAll}, opClass{name: "lookup", want: 1})
	lookup := len(inst.classes) - 1
	ctx := context.Background()
	persons, err := keysOf(ctx, db, doc, "//person")
	if err != nil || len(persons) == 0 {
		inst.close()
		return nil, fmt.Errorf("paged_cold: person keys: %d, %v", len(persons), err)
	}
	// The look-up is a relative step run from a seeded person, fetching
	// the node it finds: one descent into a random part of each tree.
	const lookupExpr = "name"
	inst.lookupKeys = persons
	inst.lookup = func(key string) ([]string, error) {
		q, err := db.Prepare(lookupExpr, vamana.WithDocument(doc))
		if err != nil {
			return nil, err
		}
		res, err := q.Run(ctx, doc, vamana.From(key, nil), vamana.Ordered())
		if err != nil {
			return nil, err
		}
		return res.Keys()
	}

	var storage vamana.StorageMetrics
	var cacheStats vamana.CacheStats
	inst.counters = func() (vamana.StorageMetrics, vamana.CacheStats) { return storage, cacheStats }
	session := func(w *worker, c int) opResult {
		db, doc, err := open()
		if err != nil {
			return drain(nil, err, 0)
		}
		var r opResult
		if c == lookup {
			var q *vamana.Query
			var res *vamana.Results
			if q, err = db.Prepare(lookupExpr, vamana.WithDocument(doc)); err == nil {
				res, err = q.Run(ctx, doc, vamana.From(persons[w.rng.Intn(len(persons))], nil))
			}
			r = drainWith(res, err, 1, true)
		} else {
			res, err := db.QueryContext(ctx, doc, inst.classes[c].expr)
			r = drain(res, err, inst.classes[c].want)
		}
		addStorage(&storage, db.StorageMetrics())
		addCache(&cacheStats, db.CacheStats())
		if err := db.Close(); err != nil && r.err == nil {
			r.err = err
		}
		r.tEnd = time.Now()
		return r
	}

	// One cycle: the six queries with the look-ups spread evenly between
	// them. The seed picks the look-ups' keys, not the order, for the
	// reason given at roundRobin.
	cycle := make([]int, 0, lookup+lookupsPerCycle)
	for c := 0; c < lookup; c++ {
		cycle = append(cycle, c)
		for i := lookupsPerCycle * c / lookup; i < lookupsPerCycle*(c+1)/lookup; i++ {
			cycle = append(cycle, lookup)
		}
	}
	inst.pick = func(w *worker) int { return cycle[w.seq%len(cycle)] }
	inst.do = session
	return inst, inst.warmOrClose(1)
}

// addStorage and addCache sum the counters of paged_cold's sessions.
func addStorage(sum *vamana.StorageMetrics, m vamana.StorageMetrics) {
	sum.Pager.Reads += m.Pager.Reads
	sum.Pager.Writes += m.Pager.Writes
	sum.Index.Add(m.Index)
	sum.RecordsDecoded += m.RecordsDecoded
	sum.StatProbes += m.StatProbes
}

func addCache(sum *vamana.CacheStats, m vamana.CacheStats) {
	sum.Hits += m.Hits
	sum.Misses += m.Misses
	sum.ProbeHits += m.ProbeHits
	sum.ProbeMisses += m.ProbeMisses
}

// coldTemplate is one shape of ad-hoc query: a value look-up on a
// literal the document holds, and a second literal that no node carries,
// which makes the expression new on every op without changing its result.
type coldTemplate struct {
	name   string
	format string // two %s: the document's literal, then the unique one
	pool   string // query whose string-values are the literals to draw from
}

var coldTemplates = []coldTemplate{
	{"province", "//province[text()='%s']/ancestor::person[@id!='%s']", "//province"},
	{"name", "//name[text()='%s']/parent::person[@id!='%s']/address", "//person[address]/name"},
	{"email", "//emailaddress[text()='%s']/parent::person[@id!='%s']/name", "//person/emailaddress"},
	{"homepage", "//homepage[text()='%s']/parent::person[@id!='%s']", "//person/homepage"},
	{"person_id", "//person[@id='%s'][name!='%s']/name", "//person/@id"},
	{"itemref", "//itemref[@item='%s']/following-sibling::price[text()!='%s']", "//closed_auction/itemref/@item"},
}

// literalsPerTemplate bounds how many of the document's values each
// template draws from: the first ones in document order, each checked
// against the oracle once with its template. The seed picks among them
// operation by operation.
const literalsPerTemplate = 32

func setupCompileCold(env setupEnv) (*instance, error) {
	inst, doc, err := loadMemory(env.small)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, t := range coldTemplates {
		vals, err := stringValues(ctx, inst.db, doc, t.pool)
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("compile_cold: literals for %s: %w", t.name, err)
		}
		if len(vals) == 0 {
			continue // a document too small to hold the element
		}
		if len(vals) > literalsPerTemplate {
			vals = vals[:literalsPerTemplate]
		}
		inst.classes = append(inst.classes, opClass{name: t.name})
		inst.templates = append(inst.templates, t)
		inst.literals = append(inst.literals, vals)
		inst.literalWant = append(inst.literalWant, make([]int, len(vals)))
	}
	if len(inst.classes) == 0 {
		inst.close()
		return nil, errors.New("compile_cold: the document holds none of the templates' literals")
	}
	nonce := 0
	inst.coldExpr = func(class, lit int) string {
		nonce++
		return fmt.Sprintf(inst.templates[class].format, inst.literals[class][lit], "zz"+strconv.FormatInt(env.seed, 36)+"x"+strconv.Itoa(nonce))
	}
	inst.pick = roundRobin(inst)
	inst.do = func(w *worker, c int) opResult {
		lit := w.rng.Intn(len(inst.literals[c]))
		res, err := inst.db.QueryContext(ctx, doc, inst.coldExpr(c, lit))
		return drain(res, err, inst.literalWant[c][lit])
	}
	return inst, inst.warmOrClose(3)
}

// updateInterval is mixed_rw's writer schedule: 100 transactions a second.
const updateInterval = 10 * time.Millisecond

// noteName is the element mixed_rw's writer inserts; no query of the
// reader's mix selects it, so the reader's results stay the oracle's.
const noteName = "benchnote"

func setupMixedRW(env setupEnv) (*instance, error) {
	src := generate(env.small)
	path, err := scratchFile(env.dir, "mixed_rw")
	if err != nil {
		return nil, err
	}
	db, err := vamana.Open(vamana.Options{Path: path})
	if err != nil {
		return nil, err
	}
	inst := &instance{db: db, src: src, xmlBytes: len(src), clients: 1, spanNames: embeddedSpans, fileBacked: true}
	inst.close = func() error {
		err := db.Close()
		os.Remove(path)
		return err
	}
	doc, err := db.LoadXMLString(docName, src)
	if err != nil {
		inst.close()
		return nil, err
	}
	inst.doc = doc
	inst.classes = append([]opClass(nil), paperQueries...)
	ctx := context.Background()
	persons, err := keysOf(ctx, db, doc, "//person")
	if err != nil || len(persons) == 0 {
		inst.close()
		return nil, fmt.Errorf("mixed_rw: person keys: %d, %v", len(persons), err)
	}
	inst.writer = &pacedWriter{db: db, doc: doc, persons: persons, rng: rand.New(rand.NewSource(env.seed))}
	inst.pick = roundRobin(inst)
	inst.do = func(w *worker, c int) opResult {
		res, err := db.QueryContext(ctx, doc, inst.classes[c].expr)
		return drain(res, err, inst.classes[c].want)
	}
	// The writer's own count of what it left behind must equal a fresh
	// query, before and after a close and reopen, with every page's
	// checksum good.
	inst.finish = func() error {
		count := func(db *vamana.DB, doc *vamana.Document) error {
			keys, err := keysOf(ctx, db, doc, "//"+noteName)
			if err == nil && len(keys) != len(inst.writer.live) {
				err = fmt.Errorf("mixed_rw: %d %s elements stored, writer's model says %d", len(keys), noteName, len(inst.writer.live))
			}
			return err
		}
		if err := count(db, doc); err != nil {
			return err
		}
		if err := db.Close(); err != nil {
			return err
		}
		re, err := vamana.Open(vamana.Options{Path: path})
		if err != nil {
			return fmt.Errorf("mixed_rw: reopen: %w", err)
		}
		inst.close = func() error {
			err := re.Close()
			os.Remove(path)
			return err
		}
		redoc, err := re.Document(docName)
		if err != nil {
			return err
		}
		if err := count(re, redoc); err != nil {
			return fmt.Errorf("after reopen: %w", err)
		}
		if _, corrupt, err := re.VerifyPages(); err != nil || len(corrupt) != 0 {
			return fmt.Errorf("mixed_rw: VerifyPages: %d corrupt pages, %v", len(corrupt), err)
		}
		return nil
	}
	return inst, inst.warmOrClose(3)
}

// pacedWriter runs one update transaction every updateInterval,
// alternating an insert of an element with a text child under a seeded
// person and a delete of the subtree inserted before, so the document's
// size stays level. A transaction's latency runs from the moment it was
// due, so a stall counts against the transactions queued behind it.
type pacedWriter struct {
	db      *vamana.DB
	doc     *vamana.Document
	persons []string
	rng     *rand.Rand
	live    []string // keys of inserted subtrees not yet deleted
	count   int

	lat, lag []uint32
	tried    int
	failed   int
	txns     uint64
	err      error
}

// start runs the writer until the returned stop is called (or end
// passes), recording the transactions due inside [winStart, end).
func (p *pacedWriter) start(winStart, end time.Time) (stop func()) {
	p.lat, p.lag, p.tried, p.failed, p.txns = nil, nil, 0, 0, 0
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		base := time.Now()
		for i := 0; ; i++ {
			due := base.Add(time.Duration(i) * updateInterval)
			if !due.Before(end) {
				return
			}
			if d := time.Until(due); d > 0 {
				select {
				case <-quit:
					return
				case <-time.After(d):
				}
			}
			began := time.Now()
			err := p.txn()
			finished := time.Now()
			if due.Before(winStart) {
				continue
			}
			p.tried++
			if err != nil {
				p.failed++
				if p.err == nil {
					p.err = err
				}
				continue
			}
			p.txns++
			p.lat = append(p.lat, clampNS(finished.Sub(due)))
			p.lag = append(p.lag, clampNS(began.Sub(due)))
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

func (p *pacedWriter) txn() error {
	p.count++
	if len(p.live) > 0 && p.count%2 == 0 {
		key := p.live[0]
		if err := p.db.Update(func(t *vamana.Txn) error { return t.DeleteSubtree(p.doc, key) }); err != nil {
			return fmt.Errorf("update: delete %s: %w", key, err)
		}
		p.live = p.live[1:]
		return nil
	}
	parent := p.persons[p.rng.Intn(len(p.persons))]
	var key string
	err := p.db.Update(func(t *vamana.Txn) error {
		k, err := t.InsertElement(p.doc, parent, -1, noteName)
		if err != nil {
			return err
		}
		key = k
		_, err = t.InsertText(p.doc, k, -1, "n"+strconv.Itoa(p.count))
		return err
	})
	if err != nil {
		return fmt.Errorf("update: insert under %s: %w", parent, err)
	}
	p.live = append(p.live, key)
	return nil
}

func (p *pacedWriter) stat() *updateStat {
	st := &updateStat{n: len(p.lat), txns: p.txns}
	if st.n == 0 {
		return st
	}
	sortU32(p.lat)
	sortU32(p.lag)
	st.p50 = quantile(p.lat, 0.50) / 1e3
	st.p99 = quantile(p.lat, 0.99) / 1e3
	st.lagP99 = quantile(p.lag, 0.99) / 1e3
	return st
}

// remoteClient is one persistent keep-alive connection to the server.
type remoteClient struct {
	c         *http.Client
	br        *bufio.Reader
	urls      []string // one per class
	queueWait string   // X-Vamana-Queue-Wait of the last response
}

func newLineReader() *bufio.Reader { return bufio.NewReaderSize(nil, 64<<10) }

var remoteSpans = [3]string{"serve.send", "serve.ttfb", "serve.stream"}

// setupRemoteHot serves the small document from a serve.Server with the
// shipped defaults on a loopback listener inside this process, with one
// keep-alive connection per processor.
func setupRemoteHot(env setupEnv) (*instance, error) {
	inst, _, err := loadMemory(env.small)
	if err != nil {
		return nil, err
	}
	inst.classes = append([]opClass(nil), paperQueries...)
	inst.clients = env.nproc
	inst.spanNames = remoteSpans
	base, stop, err := startServer(inst.db)
	if err != nil {
		inst.db.Close()
		return nil, err
	}
	inst.baseURL = base
	for i := 0; i < inst.clients; i++ {
		rc := &remoteClient{
			c:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
			br: newLineReader(),
		}
		for _, c := range inst.classes {
			rc.urls = append(rc.urls, queryURL(base, c.expr, false))
		}
		inst.remoteClients = append(inst.remoteClients, rc)
	}
	db := inst.db
	inst.close = func() error {
		for _, rc := range inst.remoteClients {
			rc.c.CloseIdleConnections()
		}
		err := stop()
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		return err
	}
	inst.pick = roundRobin(inst)
	inst.do = func(w *worker, c int) opResult {
		r := w.remote.get(w.remote.urls[c], nil)
		r.want = inst.classes[c].want
		return r
	}
	// Every connection is opened and used before the window.
	for _, rc := range inst.remoteClients {
		for c := range inst.classes {
			if r := rc.get(rc.urls[c], nil); r.err != nil {
				inst.close()
				return nil, fmt.Errorf("remote_hot warm-up: %w", r.err)
			}
		}
	}
	return inst, inst.warmOrClose(2)
}

// startServer serves db on 127.0.0.1:0 and returns the base URL and a
// stop that drains the server and waits for Serve to return.
func startServer(db *vamana.DB) (base string, stop func() error, err error) {
	srv, err := serve.New(serve.Config{DB: db})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Drain(ctx)
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func queryURL(base, expr string, ordered bool) string {
	v := url.Values{"doc": {docName}, "q": {expr}}
	if ordered {
		v.Set("ordered", "1")
	}
	return base + "/v1/query?" + v.Encode()
}

var doneLine = []byte(`{"done":true,"count":`)

// get sends one request and reads the NDJSON body to its terminal line.
// A refusal, a broken stream or a terminal count that differs from the
// lines read is an error. With onLine set every result line is passed on.
func (rc *remoteClient) get(u string, onLine func([]byte)) opResult {
	var r opResult
	fail := func(err error) opResult {
		now := time.Now()
		if r.tRun.IsZero() {
			r.tRun = now
		}
		r.tFirst, r.tEnd, r.err = now, now, err
		return r
	}
	resp, err := rc.c.Get(u)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	r.tRun = time.Now()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fail(fmt.Errorf("serve: HTTP %d", resp.StatusCode))
	}
	rc.queueWait = resp.Header.Get("X-Vamana-Queue-Wait")
	rc.br.Reset(resp.Body)
	lines := 0
	var last []byte
	cont := false // the previous chunk did not end its line
	for {
		chunk, err := rc.br.ReadSlice('\n')
		if len(chunk) > 0 {
			if !cont {
				if lines == 0 {
					r.tFirst = time.Now()
				}
				lines++
				last = last[:0]
			}
			last = append(last, chunk...)
			cont = err == bufio.ErrBufferFull
			if !cont && onLine != nil {
				onLine(last)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil && err != bufio.ErrBufferFull {
			return fail(err)
		}
	}
	r.tEnd = time.Now()
	if !bytes.HasPrefix(last, doneLine) {
		return fail(fmt.Errorf("serve: stream ended without a done line: %q", last))
	}
	count, err := strconv.Atoi(string(bytes.TrimRight(last[len(doneLine):], "}\n")))
	if err != nil || count != lines-1 {
		return fail(fmt.Errorf("serve: terminal line says %q, %d result lines read", last, lines-1))
	}
	r.n = count
	return r
}

func scratchFile(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".db")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	return path, nil
}

// keysOf returns expr's result keys in document order.
func keysOf(ctx context.Context, db *vamana.DB, doc *vamana.Document, expr string) ([]string, error) {
	res, err := db.QueryContext(ctx, doc, expr, vamana.Ordered())
	if err != nil {
		return nil, err
	}
	return res.Keys()
}

// stringValues returns the distinct string-values of expr's results, in
// document order of first appearance.
func stringValues(ctx context.Context, db *vamana.DB, doc *vamana.Document, expr string) ([]string, error) {
	res, err := db.QueryContext(ctx, doc, expr, vamana.Ordered())
	if err != nil {
		return nil, err
	}
	defer res.Close()
	seen := map[string]bool{}
	var out []string
	for res.Next() {
		v, err := res.StringValue()
		if err != nil {
			return nil, err
		}
		if !seen[v] && !strings.ContainsAny(v, `'"`) {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out, res.Err()
}

// verify compares, for every distinct query of the workload, the
// engine's ordered key list with the DOM oracle's on the same source,
// and fixes the result counts the window checks every operation against.
func verify(inst *instance) error {
	d, err := dom.Parse(strings.NewReader(inst.src))
	if err != nil {
		return fmt.Errorf("oracle: parse: %w", err)
	}
	oracle := dom.New(d, dom.Options{})
	ctx := context.Background()
	check := func(expr string) (int, error) {
		ns, err := oracle.Eval(expr)
		if err != nil {
			return 0, fmt.Errorf("oracle: %s: %w", expr, err)
		}
		got, err := keysOf(ctx, inst.db, inst.doc, expr)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", expr, err)
		}
		if err := sameKeys(expr, got, ns); err != nil {
			return 0, err
		}
		if inst.baseURL != "" {
			var wire []string
			rc := inst.remoteClients[0]
			r := rc.get(queryURL(inst.baseURL, expr, true), func(line []byte) {
				if k, ok := wireKey(line); ok {
					wire = append(wire, k)
				}
			})
			if r.err != nil {
				return 0, fmt.Errorf("%s over HTTP: %w", expr, r.err)
			}
			if err := sameKeys(expr+" over HTTP", wire, ns); err != nil {
				return 0, err
			}
		}
		return len(ns), nil
	}
	for i := range inst.classes {
		c := &inst.classes[i]
		if c.expr == "" {
			continue
		}
		if c.want, err = check(c.expr); err != nil {
			return err
		}
	}
	for c, lits := range inst.literals {
		for l := range lits {
			if inst.literalWant[c][l], err = check(inst.coldExpr(c, l)); err != nil {
				return err
			}
		}
	}
	if inst.lookup != nil {
		// Every person has exactly the name children the oracle gives it.
		ns, err := oracle.Eval("//person/name")
		if err != nil {
			return err
		}
		children := map[string][]string{}
		for _, n := range ns {
			p := string(n.Parent.Key)
			children[p] = append(children[p], string(n.Key))
		}
		for _, key := range inst.lookupKeys {
			got, err := inst.lookup(key)
			if err != nil {
				return fmt.Errorf("lookup %s: %w", key, err)
			}
			want := children[key]
			if len(want) != 1 || len(got) != 1 || got[0] != want[0] {
				return fmt.Errorf("lookup %s: engine %v, oracle %v", key, got, want)
			}
		}
	}
	return nil
}

func sameKeys(what string, got []string, want []*dom.Node) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle mismatch on %s: engine returned %d keys, oracle %d", what, len(got), len(want))
	}
	for i, n := range want {
		if got[i] != string(n.Key) {
			return fmt.Errorf("oracle mismatch on %s: key %d is %q, oracle says %q", what, i, got[i], n.Key)
		}
	}
	return nil
}

// wireKey extracts the "key" field of one NDJSON result line.
func wireKey(line []byte) (string, bool) {
	const prefix = `{"key":"`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return "", false
	}
	rest := line[len(prefix):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return "", false
	}
	return string(rest[:end]), true
}
