GO ?= go

.PHONY: all build test race vet bench-vet check fuzz bench bench-smoke alloc-guards repro fanout-race ledger-kill audit-kill prom-lint

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

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
# with at most benign crash artifacts (torn tail, lagged head).
audit-kill:
	$(GO) test -race -count=1 -run 'TestKill' ./internal/telemetry/audit

# fanout-race runs the sharded-dispatch and scheduler tests under the race
# detector: concurrent block fan-out, straggler duplication, failover and
# EDF admission are the raciest paths in the tree.
fanout-race:
	$(GO) test -race -count=1 -run 'TestFanout|TestScheduler|TestServerOverload|TestServerDeadline|TestWorker' ./internal/compman

# bench-smoke compiles and runs every micro-benchmark on the data path once,
# so the allocation benchmarks next to the copy-boundary guards cannot rot;
# -benchmem puts their bytes per operation in the CI log.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./internal/core ./internal/sandbox ./internal/dataset ./internal/compman ./internal/query ./internal/analytics ./internal/mathutil .

# alloc-guards runs the allocation count and byte guards of the block path
# (chamber, worker, engine and the k-means/logreg kernels), the RNG pool's
# and the served-query retention guard (live heap per answered query)
# without the race detector: under it sync.Pool drops a quarter of what is
# Put on purpose and 12,000 served queries take minutes, so these guards
# skip themselves in the race pass.
alloc-guards:
	$(GO) test -count=1 -run 'Allocations|SteadyStateBytes|RetainedBytes|TestRowBuf|TestCloneRows' ./internal/mathutil ./internal/analytics ./internal/core ./internal/sandbox ./internal/compman

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

# check is the pre-merge gate: static analysis of both modules plus the
# full suite under the race detector, plus dedicated passes of both kill
# matrices and the fan-out concurrency tests, plus the allocation guards,
# the Prometheus exposition lint, one iteration of every micro-benchmark
# and the figure reproduction.
check: vet bench-vet race fanout-race ledger-kill audit-kill alloc-guards prom-lint bench-smoke repro

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

# bench runs the one benchmark harness (BENCHMARK.json, bench/README.md):
# seven fixed workloads, end-to-end metrics plus the per-layer table.
bench:
	bash bench/run.sh

# prom-lint runs the exposition-format gates by name: the /metrics text
# must parse as valid Prometheus 0.0.4 and no raw duration may appear
# outside a bucketed histogram (§6.3), over the full metric registry.
prom-lint:
	$(GO) test -count=1 -run 'TestLint' ./internal/telemetry
