GO ?= go

.PHONY: all build test race vet fmt bench-vet check fuzz bench bench-smoke alloc-guards avx-off repro fanout-race ledger-kill audit-kill prom-lint

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also type-checks the two packages with an amd64-only assembly path for
# arm64, so their pure-Go fallbacks (mathutil's ExpInto without the vector
# loop, analytics' logistic-regression sweeps as Go loops) are compiled
# somewhere; asmdecl checks the amd64 frames in the first pass.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/mathutil ./internal/analytics

race:
	$(GO) test -race ./...

# avx-off runs the two packages with four-lane AVX kernels once more with
# the runtime's AVX detection off, which turns their shared gate off: the
# Go fallbacks then run end to end on an AVX host too, not only where a test
# flips the gate.
avx-off:
	GODEBUG=cpu.avx=off $(GO) test -count=1 ./internal/mathutil ./internal/analytics

# fmt fails when any Go file in the tree, the benchmark harness's module
# included, is not gofmt-formatted, and lists the files that are not.
fmt:
	@out=$$(gofmt -l .) && if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench-vet type-checks the benchmark harness, a module of its own
# (bench/go.mod) that the root ./... patterns skip, against the names it
# imports from this one, so renaming or removing one of them fails here
# and not only in CI's bench step (which also runs its tests).
bench-vet:
	cd bench && $(GO) vet ./...

# ledger-kill runs the SIGKILL recovery matrix for the durable privacy
# ledger: child processes are killed at every fsync/rename boundary and at
# random instants, and recovery must never under-count acknowledged ε.
ledger-kill:
	$(GO) test -race -count=1 -run 'TestKill' ./internal/ledger

# audit-kill is the same matrix for the tamper-evident audit log: SIGKILL
# at every append/head-write boundary must leave a chain that verifies,
# with at most benign crash artifacts (torn tail, lagged head) and a HEAD
# of exactly its fixed width. Five more passes of the random-instant kills
# land more of them inside the in-place head write.
audit-kill:
	$(GO) test -race -count=1 -run 'TestKill' ./internal/telemetry/audit
	$(GO) test -race -count=5 -run 'TestKillRandomTiming' ./internal/telemetry/audit

# fanout-race runs the raciest paths in the tree under the race detector:
# the sharded-dispatch and scheduler tests (concurrent block fan-out,
# straggler duplication, failover, EDF admission), then five passes each of
# the engine's block workers (index claims, cancellation, a worker replaced
# after its goroutine ended, concurrent runs on recycled storage) and of the
# in-process chamber's two arms and abandoned buffers. The pool's connect,
# drop and Close share each host's lock, so the tests that start, kill and
# restart workers under a live server run five times too.
fanout-race:
	$(GO) test -race -count=1 -run 'TestFanout|TestScheduler|TestServerOverload|TestServerDeadline|TestWorker' ./internal/compman
	$(GO) test -race -count=5 -run 'TestServerJoinsWorkerStartedLater|TestServerRefusesWhileFleetDown|TestServerCacheHitWhileFleetDown|TestServerWithUnreachableWorkers|TestWireOldPeersFailClosed' ./internal/compman
	$(GO) test -race -count=5 -run 'TestRun|TestConcurrentRuns' ./internal/core
	$(GO) test -race -count=5 -run 'TestInProcess|TestAbandoned' ./internal/sandbox

# bench-smoke compiles and runs every micro-benchmark on the data path once,
# so the allocation benchmarks next to the copy-boundary guards cannot rot;
# -benchmem puts their bytes per operation in the CI log.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./internal/core ./internal/sandbox ./internal/dataset ./internal/compman ./internal/query ./internal/analytics ./internal/mathutil .

# alloc-guards runs the allocation count and byte guards of the block path
# (chamber, worker, engine and the k-means/logreg kernels), the RNG pool's,
# the table builder's cells, a registration's constant count
# (TestRegisterAllocations), a client connection's read buffer, the audit
# append and the served-query retention guard (live heap per answered
# query) without the race detector: under it sync.Pool drops a quarter of
# what is Put on purpose and 12,000 served queries take minutes, so these
# guards skip themselves in the race pass.
alloc-guards:
	$(GO) test -count=1 -run 'Allocations|SteadyStateBytes|RetainedBytes|TestRowBuf|TestCloneRows' ./internal/mathutil ./internal/analytics ./internal/core ./internal/sandbox ./internal/compman ./internal/dataset ./internal/telemetry/audit

# repro regenerates the paper's figures (~35 s) and requires the six
# mechanism figures to come out byte-identical to results/: the cheapest
# whole-system proof that a data-path change left every released number
# alone. Fig. 6 and the timing tables are wall-clock and are not compared.
repro:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/gupt-bench -seed 42 -csv "$$dir" >/dev/null && \
	for f in fig3 fig4 fig5 fig7 fig8 fig9; do \
		cmp "$$dir/$$f.csv" results/$$f.csv || exit 1; \
	done && echo "repro: fig3/4/5/7/8/9.csv byte-identical to results/"

# check is the pre-merge gate: the gofmt gate and static analysis of both
# modules plus the full suite under the race detector, the vector kernels'
# packages with AVX off, plus dedicated passes of both kill matrices and the
# fan-out concurrency tests, plus the allocation guards, the Prometheus
# exposition lint, one iteration of every micro-benchmark and the figure
# reproduction.
check: fmt vet bench-vet race avx-off fanout-race ledger-kill audit-kill alloc-guards prom-lint bench-smoke repro

# fuzz runs each fuzz target briefly; lengthen FUZZTIME for soak runs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/sandbox -run xxx -fuzz FuzzReadResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sandbox -run xxx -fuzz FuzzReadRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run xxx -fuzz FuzzReadCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dp -run xxx -fuzz FuzzPercentile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dp -run xxx -fuzz FuzzAccountant -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzWireEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query -run xxx -fuzz FuzzFingerprint -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ledger -run xxx -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mathutil -run xxx -fuzz FuzzRNGMatchesMathRand -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mathutil -run xxx -fuzz FuzzGatherMatchesCopyRows -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzStridedMatchesParent -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analytics -run xxx -fuzz FuzzKMeansMatchesParent -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analytics -run xxx -fuzz FuzzLogRegMatchesReference -fuzztime $(FUZZTIME)

# bench runs the one benchmark harness (BENCHMARK.json, bench/README.md):
# seven fixed workloads, end-to-end metrics plus the per-layer table.
bench:
	bash bench/run.sh

# prom-lint runs the exposition-format gates by name: the /metrics text
# must parse as valid Prometheus 0.0.4 and no raw duration may appear
# outside a bucketed histogram (§6.3), over the full metric registry.
prom-lint:
	$(GO) test -count=1 -run 'TestLint' ./internal/telemetry
