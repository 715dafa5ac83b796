package main

// The harness registry: every workload and metric the harness emits, in the
// order it prints them. BENCHMARK.json at the repository root declares the
// same names; bench_test.go fails when the two lists drift apart.

// metricDef declares one metric. Bound is the share of the baseline median
// by which an end-to-end metric may worsen before -compare calls it a
// regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of the system sees. Every one of them is
// non-zero on every workload, so a relative bound is always defined; the
// three figures of the issue that can legitimately be zero
// (eps_per_query, answer_err_p50, failed_frac) are reported with the
// per-layer set and enforced as output checks instead. So are the tail
// latency and the throughput: no estimator kept the tail within a bound of
// 25% on the shared reference box, and in a closed loop the throughput is
// the client count over the mean latency — the median's information with
// the tail's noise.
var endToEnd = []metricDef{
	{"query_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"alloc_kb_per_query", "KiB", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced-pass metrics. Times are means per call over the
// replayed queries; a layer that is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	// Run-level figures that can be zero, so they carry no bound.
	{"eps_per_query", "eps", "lower", 0},
	{"answer_err_p50", "frac", "lower", 0},
	{"failed_frac", "frac", "lower", 0},
	{"query_p95_ms", "ms", "lower", 0},
	{"queries_per_s", "1/s", "higher", 0},
	{"single_client_query_us", "us", "lower", 0},
	{"trace_overhead_frac", "frac", "lower", 0},

	// Front-door wire.
	{"compman.wire.req_encode_us", "us", "lower", 0},
	{"compman.wire.req_decode_us", "us", "lower", 0},
	{"compman.wire.resp_encode_us", "us", "lower", 0},
	{"compman.wire.resp_decode_us", "us", "lower", 0},
	{"compman.wire.bytes_per_query", "bytes", "lower", 0},
	{"compman.ping_rtt_us", "us", "lower", 0},

	// Fan-out wire and pool.
	{"compman.wire.work_encode_us", "us", "lower", 0},
	{"compman.wire.work_decode_us", "us", "lower", 0},
	{"compman.wire.work_bytes_per_block", "bytes", "lower", 0},
	{"compman.pool.block_us", "us", "lower", 0},
	{"compman.pool.slot_utilisation", "frac", "higher", 0},
	{"compman.pool.blocks_per_s_per_core", "1/s", "higher", 0},
	{"compman.pool.redials", "count", "lower", 0},
	{"compman.pool.straggler_dispatches", "count", "lower", 0},

	// Scheduler and what the bench cannot see from outside.
	{"compman.sched.admitted", "count", "higher", 0},
	{"compman.sched.queued", "count", "lower", 0},
	{"compman.sched.rejected", "count", "lower", 0},
	{"compman.server.unattributed_us", "us", "lower", 0},

	// Tenancy front door.
	{"tenant.authenticate_us", "us", "lower", 0},
	{"tenant.reserve_us", "us", "lower", 0},
	{"ratelimit.acquire_us", "us", "lower", 0},

	// Noisy-answer cache.
	{"qcache.fingerprint_us", "us", "lower", 0},
	{"qcache.get_hit_us", "us", "lower", 0},
	{"qcache.get_miss_us", "us", "lower", 0},
	{"qcache.put_us", "us", "lower", 0},
	{"qcache.hit_ratio", "frac", "higher", 0},
	{"qcache.evictions_per_query", "count", "lower", 0},

	// Ledger and budget.
	{"ledger.spend_batched_us", "us", "lower", 0},
	{"ledger.spend_record_us", "us", "lower", 0},
	{"ledger.cache_hit_us", "us", "lower", 0},
	{"budget.charge_us", "us", "lower", 0},
	{"ledger.fsyncs_per_query", "count", "lower", 0},
	{"ledger.records_per_fsync", "count", "higher", 0},
	{"ledger.wal_bytes_per_query", "bytes", "lower", 0},

	// Audit and telemetry.
	{"audit.append_us", "us", "lower", 0},
	{"audit.bytes_per_query", "bytes", "lower", 0},
	{"telemetry.trace_us", "us", "lower", 0},

	// Sample-and-aggregate engine.
	{"core.partition_us", "us", "lower", 0},
	{"core.view_us", "us", "lower", 0},
	{"core.run_us", "us", "lower", 0},
	{"core.blocks_per_query", "count", "lower", 0},
	{"core.aggregate_us", "us", "lower", 0},
	{"dp.noise_us", "us", "lower", 0},
	{"dp.percentile_us", "us", "lower", 0},

	// Chambers, programs and kernels.
	{"sandbox.execute_us", "us", "lower", 0},
	{"sandbox.quantum_overshoot_us", "us", "lower", 0},
	{"analytics.mean_us", "us", "lower", 0},
	{"analytics.kmeans_us", "us", "lower", 0},
	{"analytics.logreg_us", "us", "lower", 0},
	{"mathutil.sum_clamped_ns_per_elem", "ns", "lower", 0},
	{"mathutil.laplace_fill_ns_per_draw", "ns", "lower", 0},

	{"dataset.register_us", "us", "lower", 0},
	{"dataset.rows_us", "us", "lower", 0},
}

// metricValue is one emitted figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to its value, pre-filled from a definition
// list so every declared name is always emitted.
type metricSet map[string]metricValue

func newMetricSet(defs []metricDef) metricSet {
	ms := make(metricSet, len(defs))
	for _, d := range defs {
		ms[d.Name] = metricValue{Unit: d.Unit}
	}
	return ms
}

// set records a value for a declared metric; an undeclared name is a bug in
// the harness, not an input error.
func (ms metricSet) set(name string, v float64) {
	mv, ok := ms[name]
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	mv.Value = v
	ms[name] = mv
}
