# Developer / CI entry points. The variables below are the single source of
# truth for the test-name regexes: .github/workflows/ci.yml and the commands
# quoted in CONTRIBUTING.md both go through `make`, so adding a suite means
# editing ONE line here.

# Chaos suite: every crash/failover/replication fault-injection test across
# the module. CI runs it under the race detector; nightly repeats it.
CHAOS_RUN  = Crash|Failover|Recover|Restart|Bootstrap|Heartbeat|Liveness|Checkpoint|Journal|Snapshot|Replication|Quorum|Follower|ValueIndex|CrossProtocol
CHAOS_PKGS = . ./internal/recovery ./internal/sched ./internal/store ./internal/harness
CHAOS_COUNT ?= 3

# Hot-path benchmarks: the multi-iteration pass benchjson gates against
# BENCH_baseline.json (-max-regress AND -require: a hot benchmark missing
# from the baseline fails the job).
HOT_BENCH = BenchmarkDistributedTxn$$|BenchmarkDistributedQuery|BenchmarkFig12Throughput|BenchmarkFigDocsScaling|BenchmarkSnapshotReadScaling|BenchmarkQueryCache|BenchmarkCheckpoint|BenchmarkJournalIntentOps|BenchmarkQuorumCommit|BenchmarkFollowerReadScaling|BenchmarkPredicateQuery|BenchmarkObsOverhead|BenchmarkQueryDocSize|BenchmarkSingleSiteTxn|BenchmarkTxnDocSize|BenchmarkTCPExchange

FUZZTIME ?= 10s

.PHONY: build test race chaos fuzz lint fmt loc loc-check bench-sweep bench-hot bench-compare bench-baseline print-hot-bench

# For CI to pass the gated-set regex into benchjson -require.
print-hot-bench:
	@echo '$(HOT_BENCH)'

build:
	go build ./...

# Shuffled to keep inter-test ordering dependencies from settling in.
test:
	go test -shuffle=on ./...

race:
	go test -race ./...

chaos:
	go test -race -count=$(CHAOS_COUNT) -run '$(CHAOS_RUN)' $(CHAOS_PKGS)

# Every fuzz target; `go test -fuzz` accepts one target per run.
fuzz:
	go test -fuzz=FuzzTableOps -fuzztime $(FUZZTIME) -run '^$$' ./internal/lock
	go test -fuzz=FuzzJournalReplay -fuzztime $(FUZZTIME) -run '^$$' ./internal/store
	go test -fuzz=FuzzImageHeader -fuzztime $(FUZZTIME) -run '^$$' ./internal/store
	go test -fuzz=FuzzReplRecordDecode -fuzztime $(FUZZTIME) -run '^$$' ./internal/store
	go test -fuzz=FuzzWireDecode -fuzztime $(FUZZTIME) -run '^$$' ./internal/transport
	go test -fuzz=FuzzApplyPeelRestoreUndo -fuzztime $(FUZZTIME) -run '^$$' ./internal/xupdate
	go test -fuzz=FuzzEvalDocOrder -fuzztime $(FUZZTIME) -run '^$$' ./internal/xpath
	go test -fuzz=FuzzGuidedEval -fuzztime $(FUZZTIME) -run '^$$' ./internal/dataguide

# Size of the program: tracked non-test Go lines outside the benchmark
# driver. ROADMAP aim 2 wants it to shrink; CI prints it per run.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs cat | wc -l

# The ratchet behind `make loc`: a PR that grows the program past the budget
# fails the gate; one that shrinks it lowers LOC_BUDGET to its own result.
LOC_BUDGET = 17237

loc-check:
	@n=$$($(MAKE) -s loc); echo "non-test Go lines outside bench/: $$n (budget $(LOC_BUDGET))"; [ $$n -le $(LOC_BUDGET) ]

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck / govulncheck are optional locally (CI installs them); the
# target degrades to vet-only with a note instead of failing.
lint: fmt
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping"; fi

bench-sweep:
	go test -bench . -benchtime 1x -run '^$$' . | tee bench_sweep.txt

bench-hot:
	go test -bench '$(HOT_BENCH)' -benchtime 2s -run '^$$' . | tee bench_hot.txt

# Compare a local hot-path run against the committed baseline.
bench-compare: bench-hot
	go run ./cmd/benchjson -baseline BENCH_baseline.json -require '$(HOT_BENCH)' bench_hot.txt

# Re-seed BENCH_baseline.json (run when a PR intentionally shifts perf).
bench-baseline: bench-sweep bench-hot
	go run ./cmd/benchjson -o BENCH_baseline.json bench_sweep.txt bench_hot.txt
