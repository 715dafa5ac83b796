GO ?= go

.PHONY: all build test race vet check fuzz bench bench-smoke fanout-race ledger-kill audit-kill prom-lint

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

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
# so the allocation benchmarks next to the copy-boundary guards cannot rot.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/core ./internal/sandbox ./internal/dataset ./internal/compman ./internal/query

# check is the pre-merge gate: static analysis plus the full suite under
# the race detector, plus dedicated passes of both kill matrices and the
# fan-out concurrency tests, plus one iteration of every micro-benchmark.
check: vet race fanout-race ledger-kill audit-kill bench-smoke

# fuzz runs each fuzz target briefly; lengthen FUZZTIME for soak runs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/sandbox -run xxx -fuzz FuzzReadResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sandbox -run xxx -fuzz FuzzReadRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run xxx -fuzz FuzzReadCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dp -run xxx -fuzz FuzzPercentile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dp -run xxx -fuzz FuzzAccountant -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzDecodeWorkRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzDecodeWorkResponse -fuzztime $(FUZZTIME)
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
