package vamana_test

// BenchmarkMixedReadWrite measures the tentpole concurrency claims of
// the snapshot/transaction API: reader throughput alone, reader
// throughput while a writer commits transactions in the background, and
// raw write-transaction throughput. Results land in
// BENCH_concurrency.json next to the figure data.

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"vamana"
	"vamana/internal/bench"
)

// BenchmarkMixedReadWrite serves the paper workload Q1-Q5 through
// DB.Query (the auto-snapshot path) in three modes:
//
//   - read-solo: RunParallel readers, no writer — the baseline.
//   - read-with-writer: the same readers while a background goroutine
//     commits one DB.Update transaction (insert + delete on a scratch
//     document) every writerEvery — the reader-isolation story: every
//     commit installs a fresh shared snapshot under the readers.
//   - write-only: b.N committed transactions back to back, each one
//     insert + delete batched into a single group-committed version.
//
// The writer is paced, not spinning: an unthrottled in-memory commit
// loop measures CPU timesharing on small machines, while a fixed pace
// makes read-solo and read-with-writer comparable across runs.
func BenchmarkMixedReadWrite(b *testing.B) {
	const (
		docKB       = 32
		writerEvery = 10 * time.Millisecond
	)
	type modeResult struct {
		NsPerOp    float64 `json:"ns_per_op"`
		QueriesSec float64 `json:"queries_per_sec"`
		Ops        int     `json:"ops"`
	}
	report := struct {
		Benchmark     string                `json:"benchmark"`
		DocKB         int                   `json:"doc_kb"`
		Goroutines    int                   `json:"goroutines"`
		WriterEveryMS float64               `json:"writer_every_ms"`
		Queries       []string              `json:"queries"`
		Modes         map[string]modeResult `json:"modes"`
		ReadSlowdown  float64               `json:"read_slowdown_with_writer"`
	}{
		Benchmark:     "BenchmarkMixedReadWrite",
		DocKB:         docKB,
		Goroutines:    runtime.GOMAXPROCS(0),
		WriterEveryMS: float64(writerEvery) / float64(time.Millisecond),
		Modes:         map[string]modeResult{},
	}
	for _, q := range bench.Queries {
		report.Queries = append(report.Queries, q.ID)
	}

	sf, err := bench.NewFixtureExecBatch(docKB<<10, 71, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer sf.Close()
	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	doc, err := db.LoadXMLString("auction", sf.Source())
	if err != nil {
		b.Fatal(err)
	}
	scratch, err := db.LoadXMLString("scratch", `<pad><slot/></pad>`)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range bench.Queries {
		res, err := db.Query(doc, q.XPath)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Keys(); err != nil {
			b.Fatal(err)
		}
	}

	readOne := func(i int) error {
		q := bench.Queries[i%len(bench.Queries)]
		res, err := db.Query(doc, q.XPath)
		if err != nil {
			return err
		}
		for res.Next() {
		}
		return res.Err()
	}
	writeOne := func() error {
		return db.Update(func(tx *vamana.Txn) error {
			k, err := tx.InsertElement(scratch, "a", -1, "w")
			if err != nil {
				return err
			}
			return tx.DeleteSubtree(scratch, k)
		})
	}
	startWriter := func() (stop func()) {
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(writerEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
				}
				if err := writeOne(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		return func() { close(done); wg.Wait() }
	}

	runReaders := func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if err := readOne(i); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
	record := func(name string, b *testing.B) {
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		report.Modes[name] = modeResult{NsPerOp: ns, QueriesSec: 1e9 / ns, Ops: b.N}
	}

	b.Run("mode=read-solo", func(b *testing.B) {
		b.ResetTimer()
		runReaders(b)
		b.StopTimer()
		record("read-solo", b)
	})
	b.Run("mode=read-with-writer", func(b *testing.B) {
		stop := startWriter()
		b.ResetTimer()
		runReaders(b)
		b.StopTimer()
		stop()
		record("read-with-writer", b)
	})
	b.Run("mode=write-only", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := writeOne(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		record("write-only", b)
	})

	solo, okS := report.Modes["read-solo"]
	mixed, okM := report.Modes["read-with-writer"]
	if !okS || !okM || solo.NsPerOp <= 0 {
		return
	}
	report.ReadSlowdown = mixed.NsPerOp / solo.NsPerOp
	b.Logf("read slowdown with paced writer: %.3fx", report.ReadSlowdown)
	// Smoke runs (-benchtime 1x) produce single-iteration noise; only
	// record results from runs that actually measured.
	if solo.Ops < 100 || mixed.Ops < 100 {
		b.Logf("too few iterations to record; BENCH_concurrency.json left untouched")
		return
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_concurrency.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
