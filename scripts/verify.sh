#!/usr/bin/env bash
# verify.sh — the correctness gate every change must pass.
#
# Order matters: cheap structural checks first, then the project lint suite
# (pmlint: buffer/I-O/determinism invariants the compiler cannot see), then
# the determinism contract tests on their own, the full test suite under the
# race detector, and last the end-to-end benchmark's smoke test. Serving-mode
# behaviour (concurrent joins bit-identical to solo runs, rejections and
# cancellations accounted) is covered by the root package's TestServer* tests
# inside the race run. The pin ledger is checked at run time, not by lint:
# every executor runs through join.Engine.Run, which fails a body that returns
# successfully with a frame still pinned, and the contract step runs
# TestRunRejectsLeakedPin so the check cannot be renamed or deleted unseen.
#
# Usage: scripts/verify.sh [-short]
#   -short  passes -short to `go test`, which skips the randomized agreement
#           sweeps and the experiment integration tests.
set -euo pipefail
cd "$(dirname "$0")/.."

SHORT_FLAG=""
if [[ "${1:-}" == "-short" ]]; then
  SHORT_FLAG="-short"
fi

echo "==> go build ./..."
go build ./...

echo "==> go build ./cmd/pmjoind (serving daemon)"
# Build the daemon explicitly so a broken main package (which ./... already
# covers) fails with its own banner in the verify log.
go build -o /dev/null ./cmd/pmjoind

echo "==> go vet ./..."
go vet ./...

echo "==> GOARCH=arm64 go vet ./... (the build without the amd64 assembly)"
# No test build on this host compiles sums_noasm.go; vetting the arm64 build
# type-checks its stubs against the assembly kernels' signatures.
GOARCH=arm64 go vet ./...

echo "==> pmlint ./..."
# -stats prints the rule count, finding count, and load/analyze wall time,
# so a slow or noisy lint gate is visible right here in the verify log.
go run ./cmd/pmlint -stats ./...

# contract PKG PATTERN runs the tests PATTERN selects in PKG under the race
# detector. PATTERN is a |-separated list of test names (each, as in -run, a
# regexp matched anywhere in the name), and every name must select at least
# one test: a name in -run that matches nothing passes silently, so a renamed
# or deleted contract test fails the gate here instead.
contract() {
  local pkg=$1 pattern=$2 listed name dead=()
  listed=$(go test -list '.*' "$pkg" | grep -E '^(Test|Fuzz)')
  IFS='|' read -ra names <<< "$pattern"
  for name in "${names[@]}"; do
    grep -Eq -- "$name" <<< "$listed" || dead+=("$name")
  done
  if ((${#dead[@]})); then
    echo "verify: no test in $pkg matches contract name(s): ${dead[*]}" >&2
    exit 1
  fi
  go test -race -run "$pattern" "$pkg"
}

echo "==> determinism contracts (metrics observer + one clustered route + shard runs + storage backends + measured I/O + session accounts + Lemma 4 + comparison oracle + block kernel + pair collection + serving + STR and sequence tree identity + pin ledger + one memo + one clock)"
# Run the dedicated contract tests on their own first: a bit-identical
# Report / Pairs / Plan with tracing enabled is the invariant that keeps
# the metrics layer an observer rather than a participant, and the block
# kernel's counters, which ride the always-on snapshot, read the same with
# tracing off as on. Every clustered
# join runs the shard planner's plan through shard.Run, so the same
# triple must be identical across shard worker counts, and shards=0 and
# shards=1 (one shard, the global schedule) must agree, with shards=0 still
# reporting no shards. Explain renders that plan, so its cluster order is the
# run's. The file-backed store (real encoded files) must reproduce the
# simulator's triple bit for bit, Explain's per-cluster and per-shard reads
# must equal the run's measured reads (Lemma 4; clusters that fill the buffer
# included), and the one comparison run — JoinCells over a run's cells, by
# the block kernel or the per-cell self and string loops, inline and on
# workers, from every executor — must reproduce the reference distance
# loops' pair stream, comparison counts and CPU-second bits. The clustered
# executor's two-cluster window must match its inline run with pair caps cut
# inside a cluster whose successor is in flight, and a cancellation inside the
# window must leave no comparison running and no frame pinned. Collected pairs
# keep the per-pair reference's order and Truncated flag at caps around a
# pair-chunk boundary, sharded or not, and a warm result-heavy join allocates
# little more than its exact-size pair slice. The block kernel, reading the
# pinned pages in place, must emit a per-pair PagePairWithin loop's hits in
# its order, and the root's joins must not depend on which kernel ran.
# A fetched page costs one allocation, and page records written before pages
# had one type decode to equal pages; the EGO join reads object counts, IDs
# and the self-join skip off the pages and must still equal brute force.
# Served joins and explains, which share the memo's plans, must equal solo
# ones on a fresh System with the admission ledger balanced after (under
# -race, nothing writes into a shared plan), and a cancelled head of the admission queue must not strand the waiters
# behind it.
# The STR loader must pack the pages and hierarchy of its per-axis reference,
# and the landsat and road shapes must hash to their recorded trees. The
# point loader AddVectors uses must build BulkLoadSTR's tree, and the slab
# selection must put the sorted order's sets in every slab on adversarial
# inputs and when it falls back to sorting. The point loader must build the
# same tree on a 2- and a 4-worker pool as inline, and the selection that
# forks a partition's sides onto the pool must leave strSelect's order; AddVectors, which loads on
# a pool, must name the lowest-index malformed vector whichever range finds
# it, and leave no worker running once it returns. Ingest checks only a
# dataset's page count, so the full index walk runs here, on datasets of all
# three Add* calls over hostile inputs. The MR- and MRS-index trees and
# page layouts, built through the one sliding-window layout, must hash to
# the values recorded when each package held its own copy.
# A run's measured reads are summed in one place, the metrics snapshot, and
# ExecStats repeats it for every method. A disk session is a run's only I/O
# account, so concurrent sessions over one disk must each report the solo
# account of their own accesses. The matrix build must mark its reference's
# cells on hierarchies with several leaves a page, where it saturates page
# pairs, with counters that do not depend on the sub-sweep schedule; a
# string join's MatrixSeconds must not depend on Parallelism when each run
# builds its own matrix. A run's own files (EGO's sorted copy, BFRJ's node
# and spill files) live in its session: repeated and concurrent EGO and BFRJ
# joins must leave the catalog and the attached store as ingest left them.
# The System memoizes matrices and plans in internal/sflight's Cache: a
# second Get is a hit, a failed fill is not kept, concurrent callers share
# one fill, a waiter never inherits the filler's cancellation and a fill may
# fill another key. The System keeps its matrixCacheEntries least recently
# used matrices and its least recently used plans within their weight, one
# plan for every negative FilterDepth; a plan's key names every option its
# method's plan reads and no other, so an SC join and Explain share one
# plan, and a join waiting on a cancelled caller's plan plans again.
# ExecStats' walls are the metrics snapshot's matrix, cluster and join
# phases, unsharded, sharded (whose top-level join phase covers the shards
# and their merge) and cancelled, and a join cancelled during its matrix
# build returns after it with no cluster phase opened. A cancel 2 ms into a
# landsat-shaped build returns within 10 ms (20 times that under the race
# detector this step runs with), keeping no matrix, and the
# matrix memo keeps a key past the four fresh ones the benchmark's traced
# pass joins after it. Eight concurrent served joins (SC, CC, sharded SC)
# run on the System's one pool, never more goroutines than its GOMAXPROCS
# workers above their own, and equal a fresh System's.
contract . 'TestIngestedDatasetsValidate|TestAddVectorsParallelLowestOffender|TestAddVectorsWhileJoining|TestMetricsDeterminism|TestShardDeterminism|TestUnshardedResultShape|TestExplainOrderIsExecutedOrder|TestBackendParity|TestMeasuredIOIsMetrics|TestMetricsPredictedVsMeasured|TestShardPredictedVsMeasured|TestCollectPairsAndTruncation|TestPairsCapBoundaryShardedVsUnsharded|TestCollectPairsAllocatesOnce|TestBatchKernelsDeterminism|TestBatchCountersAlwaysOn|TestServerConcurrentBitIdentical|TestAdmitterCancelledHeadGrantsWaiters|TestStringMatrixSecondsIndependentOfParallelism|TestRunFilesStayInSession|TestL2BoundaryAllMethods|TestMatrixCacheEvictsLeastRecentlyUsed|TestServerExplainCached|TestPlanKeyNamesEveryPlanInput|TestPlanWaiterKeepsItsOwnContext|TestExecWallsAreMetricsPhases|TestPlanningHonoursCancel|TestJoinContextCancelDuringBuild|TestMatrixCacheKeepsKeyPastFourFreshOnes|TestServerJoinsShareOnePool'
contract ./internal/sflight 'TestGetSequential|TestGetError|TestGetConcurrent|TestGetWaiterKeepsItsOwnContext|TestGetDistinctKeysDoNotBlock'
contract ./internal/buffer 'TestPinSet'
# The worker pool runs every task it is handed and joins its workers on
# Close; a group never has more than its cap in flight, its waiter's task
# included, and on a one-worker pool a group whose tasks each wait on a
# group of their own (a shard on its comparison runs) finishes.
contract ./internal/pool 'TestWorkerPoolRunsAllTasks|TestWorkerPoolRecursiveSubmit|TestWorkerPoolCloseJoinsWorkers|TestWorkerPoolRunAfterClosePanics|TestGroupNestedWaitOneWorker|TestGroupCapsTasksInFlight|TestGroupInline'
# shard.Run must slot every shard's outcome by index at any worker count on
# a shared pool, return the first error by shard index, start no shard once
# cancelled and, on one worker, drain a long plan promptly after a cancel.
contract ./internal/shard 'TestRunOrder|TestRunFirstError|TestRunCancelMidRun|TestRunCancelPromptDrain'
contract ./internal/disk 'TestConcurrentSessionsIndependentStats'
contract ./internal/join 'TestJoinPagesMatchesReference|TestClusteredMatchesOracle|TestParallelReportsIdentical|FuzzRunVsReference|TestPairsCapsMatchReference|TestClusterWindowMatchesSerial|TestClusterWindowCancel|TestRunRejectsLeakedPin'
contract ./internal/kernel 'TestBlockPairsWithinMatchesPagePair'
contract ./internal/store 'TestFetchAllocsFlat|TestCodecRoundTripStringPage|FuzzPageCodecRoundTrip|TestDecodeParentPageRecords'
contract ./internal/ego 'TestEGOMatchesBruteForce|TestEGOSelfJoin'
# FromEntries builds every matrix: any batches, unsorted and repeating
# cells, of any shape, give the map-based reference's accessors; a Build
# whose context is already done builds no node table.
contract ./internal/predmat 'TestBuildMatchesReference|TestSharedPageBuildMatchesReference|TestFilterPreservesMatrix|TestCompleteness|TestFilterRoundRule|TestMatrixMarkAndQuery|TestQuickRowColConsistency|TestIsMarkedBeyondBitset|TestMatrixMarkOutOfRangePanics|TestFullSharesMarkPath|TestBuildCancelledBuildsNoTable'
contract ./internal/rstar 'TestBulkLoadSTRMatchesPerAxisSorts|TestSTRTreeFingerprint|TestPointLoadMatchesBulkLoadSTR|TestSTRSelectAdversarial|TestPointLoadParallelMatchesInline|TestSTRSelectOnMatchesStrSelect'
contract ./internal/index 'TestSequenceTreeFingerprint'

echo "==> go test -race ${SHORT_FLAG} ./..."
# Race instrumentation slows the experiment replications several-fold;
# give the heaviest package headroom beyond the 10m default.
go test -race -timeout=20m ${SHORT_FLAG} ./...

echo "==> go test ./bench (the end-to-end benchmark's own tests)"
# Already part of ./... above, under -race; run once more without it because
# that is how the benchmark runs: the -scale tiny smoke checks that every
# metric in BENCHMARK.json is produced, that exact counters repeat, and
# Lemma 2, on the binary the benchmark actually builds.
go test ./bench

echo "verify: OK"
