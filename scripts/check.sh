#!/bin/sh
# Repo health check: formatting, vet, build, tests (with the race
# detector) and a serving-path smoke test. Run from anywhere.
set -eu

cd "$(dirname "$0")/.."

echo "== no generated bench output tracked"
# Benchmark sweeps write vbench_output.txt / scripts/out locally; they
# are scratch artifacts and must never land in the tree.
tracked=$(git ls-files --cached -- 'vbench_output.txt' 'scripts/out' | head -5)
staged=$(git diff --cached --name-only -- 'vbench_output.txt' 'scripts/out' | head -5)
if [ -n "$tracked$staged" ]; then
    echo "generated bench output is tracked or staged:" >&2
    printf '%s\n%s\n' "$tracked" "$staged" | sed '/^$/d' >&2
    exit 1
fi

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== public API surface (go doc -all vs scripts/api_surface.txt)"
# Accidental exports, signature changes and deletions fail here with a
# textual diff; deliberate API changes re-record the golden with
# scripts/apisnapshot.sh -update.
scripts/apisnapshot.sh
# Deprecated wrappers were removed; keep them from creeping back.
if grep -n 'Deprecated:' scripts/api_surface.txt; then echo "deprecated entry points in the public API" >&2; exit 1; fi

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== allocation pins (without -race, whose sync.Pool drops make counts noisy)"
# A feature on every warm query's path adds no allocations to it — see
# TestFeatureAllocPins and TestCostFoldAllocFree; fetching every result
# costs a warm drain nothing (TestResultNodeAllocPin), and a warm handler
# request allocates under 16 KiB (TestHandlerRequestBytes). How much time
# a feature costs is the benchmark's to report, paired against the parent.
go test -run '^TestFeatureAllocPins$|^TestCostFoldAllocFree$|^TestResultNodeAllocPin$|^TestHandlerRequestBytes$' -count 1 . ./internal/core ./internal/serve

echo "== benchmark module (all six workloads, oracle-checked, tiny document)"
# benchmark/ is a module of its own, so the ./... passes above never build
# or run it: without this line a change that breaks a workload's oracle
# check, or an internal API benchmark/layers.go calls, goes unnoticed
# until the benchmark itself is run.
(cd benchmark && go test ./...)

echo "== serving smoke (BenchmarkServing, 1 iteration)"
go test -run '^$' -bench BenchmarkServing -benchtime 1x .

echo "== governance tests under the race detector"
# Cancellation, deadlines and budgets exercise the executor's pooled run
# state and concurrent governed queries — the -race run is the leak and
# data-race gate the ISSUE requires.
go test -race -run 'TestQueryContext|TestQueryTimeout|TestCancel|TestPreCanceled|TestBudget|TestDefaultLimits|TestConcurrentMixed|TestErrorTaxonomy|TestResultsAll' -count 1 .

echo "== crash matrix (fault injection at every backend write and sync)"
go test -race -run '^TestCrashMatrix$|^TestFlushCrashMatrix$' -count 1 . ./internal/pager/

echo "== differential stress (optimized vs unoptimized vs DOM oracle)"
# 2,400 seeded (document, query) pairs behind the stress tag; any
# disagreement prints the seed needed to reproduce it. The timeout is the
# fixed time budget — the run takes well under a minute.
go test -tags stress -run '^TestDifferentialStress$' -timeout 10m -count 1 .

echo "== fuzz smokes (10s each)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/xpath/
go test -run '^$' -fuzz '^FuzzFlexKey$' -fuzztime 10s ./internal/flex/
go test -run '^$' -fuzz '^FuzzPagerReopen$' -fuzztime 10s ./internal/pager/
go test -run '^$' -fuzz '^FuzzTreeOps$' -fuzztime 10s ./internal/btree/

echo "== batch throughput gate (batched vs tuple-at-a-time scan drains, 1.5x floor)"
# Paired interleaved best-of-rounds: the default-batch engine must stay
# >= 1.5x tuple-at-a-time on scan-heavy shapes — see
# TestBatchThroughputGate.
VAMANA_BATCH_GATE=1 go test -run '^TestBatchThroughputGate$' -v -count 1 -timeout 20m .

echo "== cost-observatory tests under the race detector"
# Concurrent accumulator folds racing committed-update epoch
# invalidation, and concurrent slow queries sharing one unlocked
# slow-query log writer — the observatory's correctness battery, run
# with -race on top of the plain ./... pass.
go test -race -run 'TestCostObservatory|TestSlowQueryWorstOp|TestSlowQueryLogConcurrent' -count 1 .

echo "== snapshot/transaction tests under the race detector"
# Snapshot isolation, transaction atomicity, typed busy/read-only
# errors, Explain/ExplainAnalyze reading the pinned version, query
# options and prepared runs reading (and observed) alike on every entry
# point, no dirty reads inside an open transaction, and the
# mixed-workload battery (readers on pinned snapshots racing a
# committing writer, streams byte-identical to committed states) — see
# snapshot_test.go. Reads served from snapshots count in the store's
# metrics (TestSnapshotReadsReachStorageMetrics); in ./internal/mass,
# readers of pinned views share page frames with a committing writer
# and rebound scanners equal the brute-force oracle.
go test -race -run 'TestSnapshotIsolation|TestSnapshotReadOnlyPublic|TestSnapshotExplainAnalyze|TestUpdateTxnPublic|TestDropBusyPublic|TestPrepareRunEquivalence|TestMixedReadWriteRace|TestQueryOptionsEveryEntryPoint|TestPreparedRunObserved|TestNoDirtyReadsDuringTransaction|TestSnapshotReadsReachStorageMetrics' -count 1 .
go test -race -run '^TestSnapshotReadersShareFrames$|^TestReboundScannerAgainstOracle$|^TestReboundValueShapesAgainstBruteForce$' -count 1 ./internal/mass
# Two lock-free readers on one live DB against a committing writer, each
# read equal to the DOM oracle of the generation it pinned: probabilistic,
# so it runs many times.
go test -race -run '^TestConcurrentReadersMatchOracle$' -count=20 .

echo "== server battery under the race detector"
# Admission state machine on the wire, concurrent tenants vs a
# committing writer with byte-identical streams, graceful drain
# (including crash-during-drain recovery), goroutine-leak checks, and
# the request-observability battery (wire IDs, access log, one ring
# record per request, combined serve+engine traces) — the vamanad proof
# obligations. Included in the plain ./... -race pass above, but run
# with -count 1 here so a cached result never masks a flaky race.
go test -race -count 1 ./internal/serve

echo "OK"
