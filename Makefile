GO ?= go

.PHONY: check build vet test race race-core fuzz-smoke bench-smoke recovery-torture mvcc-stress ingest-stress serve-stress vector-stress concurrency-repeat

# check is the full CI gate: static analysis, a clean build, and the
# test suite under the race detector.
check: vet build race race-core

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-core focuses the race detector on the layers that share a buffer
# pool across parallel scan workers, with extra iterations on the
# page-partitioned parallel index fetch, the parallel hash build and
# partial aggregation (whose workers share one set of bound expression
# closures), the lock-free epoch readers and the server's drain gate.
race-core:
	$(GO) test -race ./internal/engine/... ./internal/exec/...
	$(GO) test -race -count=4 -run 'TestParallelSortedFetchMatchesSerial|TestSummaryIndexScanPartitionedConcatenation' ./internal/engine/... ./internal/exec/...
	$(GO) test -race -count=10 -run 'TestParallelHashJoinMatchesSerial|TestParallelGroupByMatchesSerial' ./internal/exec/
	$(GO) test -race -count=2 -run 'TestEpochReaderStress' ./internal/engine/
	$(GO) test -race -count=10 -run 'TestCloseDrainsInFlight|TestAdmission' ./internal/server

# fuzz-smoke runs the expression-binding fuzz target for 30 seconds:
# arbitrary text is parsed and bound, and Bind and BindPred must agree
# without panicking. Its seed corpus also runs in the plain test suite.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBind$$' -fuzztime 30s ./internal/exec

# bench-smoke regenerates one representative figure plus the parallel
# speedup, buffer-pool, and group-commit grids at the reduced quick
# scale and writes a machine-readable BENCH_smoke.json snapshot (figures
# + engine metrics) so perf regressions show up as diffs between runs.
bench-smoke:
	$(GO) run ./cmd/benchreport -quick -fig 10,17,18,19,20,21,22,23,24 -json BENCH_smoke.json

# recovery-torture runs the WAL crash matrix: the mixed workload's log is
# cut at every record boundary (and inside every record) and each prefix
# is recovered and compared against a committed-prefix oracle, plus the
# concurrent group-commit stress under the race detector.
recovery-torture:
	$(GO) test -count=1 -run 'TestRecoveryTortureEveryBoundary|TestReopenDurability|TestCheckpointBoundsRecovery' ./internal/engine/
	$(GO) test -race -count=2 -run 'TestWALGroupCommitRaceStress|TestReadersNotBlockedByCommitWait' ./internal/engine/

# mvcc-stress hammers the copy-on-write epoch machinery under the race
# detector: 8 lock-free readers against concurrent transactions with
# rollbacks and automatic checkpoints, Close racing in-flight queries,
# and the rollback-then-checkpoint regression.
mvcc-stress:
	$(GO) test -race -count=2 -run 'TestEpochReaderStress|TestCloseUnderLoad|TestRollbackThenCheckpoint' ./internal/engine/

# ingest-stress hammers the batched net-delta ingest buffer under the
# race detector: concurrent annotation writers against lock-free epoch
# readers (which force flush-on-demand through the dirty flag), the
# interval flusher, and explicit flush/checkpoint calls, plus the
# eager/batched differential and WAL-recovery identity suite.
ingest-stress:
	$(GO) test -race -count=2 -run 'TestIngestConcurrentStress|TestIngestIntervalFlush' ./internal/engine/
	$(GO) test -race -count=1 -run 'TestIngestEagerBatchedIdentity|TestIngestWALStreamAndRecovery|TestAttachDeleteReattachLifecycle' ./internal/engine/

# serve-stress hammers the HTTP front-end under the race detector:
# concurrent sessions with shared prepared statements, per-tenant
# admission shedding over real connections, graceful-drain vs in-flight
# requests, plus the engine-side lifecycle suite (ingest-flusher join on
# Close, Metrics consistency vs 8 query goroutines, plan-cache
# staleness across DDL), and a 64-connection mixed read/ingest run of
# the Figure 23 server benchmark.
serve-stress:
	$(GO) test -race -count=2 ./internal/server/
	$(GO) test -race -count=2 -run 'TestIngestFlusherJoinedOnClose|TestIngestFlusherOpenCloseStress|TestMetricsSnapshotConsistency|TestPreparedConcurrentExecutions|TestPlanCacheStaleness' ./internal/engine/
	$(GO) test -race -count=1 -run 'TestFig23Smoke' ./internal/bench/

# concurrency-repeat reruns the concurrency unit tests 20 times each, so
# a broken oracle cannot pass on lucky goroutine scheduling: the MVCC
# clock, the parallel executor's Gather/GroupBy/HashJoin/Budget tests,
# and the server's admission control and drain.
concurrency-repeat:
	$(GO) test -count=20 ./internal/mvcc/
	$(GO) test -count=20 -run 'TestGather|TestParallel|TestBudgetConcurrentHammer|TestQueryCtxConcurrentTicks' ./internal/exec/
	$(GO) test -count=20 -run 'TestAdmission|TestCloseDrainsInFlight' ./internal/server/

# vector-stress exercises the vectorized executor end to end under the
# race detector: the batch differential corpus across batch sizes (1 =
# batches of one), vectorized scans feeding the parallel Gather exchange
# from 4 query goroutines, mid-batch and batch-of-one cancellation
# latency, the per-row allocation budget, and the Figure 24 smoke run
# with its enforced >= 3x speedup floor on the headline scan. The floor
# is then rerun 20 times without the race detector, so a margin that
# holds only on lucky runs fails here rather than in CI later.
vector-stress:
	$(GO) test -race -count=1 -run 'TestVectorized|TestBatch|TestTransformBatch|TestMidBatchCancellationStopsWithinOneBatch' ./internal/engine/ ./internal/exec/
	$(GO) test -race -count=1 -run 'TestVectorizedAllocBudget' .
	$(GO) test -race -count=1 -run 'TestFig24Smoke' ./internal/bench/
	$(GO) test -count=20 -run TestFig24Smoke ./internal/bench/
