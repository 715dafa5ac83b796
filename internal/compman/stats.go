package compman

import (
	"sync/atomic"
	"time"

	"gupt/internal/telemetry"
)

// ServerStats is an operator-facing snapshot of a server's activity since
// start. All fields are monotonic counters except the latency aggregate. A
// session (OpSession) counts as one query.
type ServerStats struct {
	// QueriesOK counts successfully answered queries.
	QueriesOK int64 `json:"queriesOK"`
	// QueriesFailed counts queries refused for any reason other than
	// budget (validation errors, engine failures).
	QueriesFailed int64 `json:"queriesFailed"`
	// BudgetRefusals counts queries refused because a dataset's budget
	// could not cover them. Broken out because a spike here is the normal
	// end-of-life signal for a dataset, not an error.
	BudgetRefusals int64 `json:"budgetRefusals"`
	// QueriesAborted counts queries that failed *after* their privacy
	// charge settled: their ε is consumed (the §6.2 privacy-budget-attack
	// defense). Every aborted query is also counted in QueriesFailed.
	QueriesAborted int64 `json:"queriesAborted"`
	// QueriesDegraded counts successful queries in which at least one
	// block was substituted — answers released at reduced fidelity.
	QueriesDegraded int64 `json:"queriesDegraded"`
	// BlocksSubstituted accumulates substituted block executions across
	// all successful queries; the engine replaced these with the
	// data-independent range midpoint.
	BlocksSubstituted int64 `json:"blocksSubstituted"`
	// QueryRetries counts engine re-runs after a post-charge failure
	// (bounded by ServerConfig.MaxQueryRetries). Retries never re-charge.
	QueryRetries int64 `json:"queryRetries"`
	// TotalQueryMillis accumulates wall-clock time spent answering
	// successful queries; divide by QueriesOK for the mean latency.
	TotalQueryMillis int64 `json:"totalQueryMillis"`
}

// statsCollector is the server's activity ledger, rebased onto the
// telemetry registry: every counter is a lock-free registry counter, so the
// wire-protocol ServerStats snapshot (OpStats) and the admin /metrics
// endpoint are two views of the same atomics and can never disagree.
//
// TotalQueryMillis is the one deliberate exception: it stays a private
// atomic instead of a registry counter. Exporting a cumulative millisecond
// total next to a query count would let anyone diffing consecutive
// /metrics snapshots recover one query's exact duration — the §6.3 timing
// side channel. The wire snapshot keeps the field for client compatibility;
// /metrics exposes latency only as the bucketed
// compman.query_latency_millis histogram.
type statsCollector struct {
	queriesOK         *telemetry.Counter
	queriesFailed     *telemetry.Counter
	budgetRefusals    *telemetry.Counter
	queriesAborted    *telemetry.Counter
	queriesDegraded   *telemetry.Counter
	blocksSubstituted *telemetry.Counter
	queryRetries      *telemetry.Counter
	queriesOverloaded *telemetry.Counter
	latency           *telemetry.Histogram
	totalQueryMillis  atomic.Int64
}

// newStatsCollector resolves the collector's counters in tel once, so the
// hot path pays one atomic add per event. tel must be non-nil (the server
// always owns a registry).
func newStatsCollector(tel *telemetry.Registry) *statsCollector {
	return &statsCollector{
		queriesOK:         tel.Counter("compman.queries_ok"),
		queriesFailed:     tel.Counter("compman.queries_failed"),
		budgetRefusals:    tel.Counter("compman.budget_refusals"),
		queriesAborted:    tel.Counter("compman.queries_aborted"),
		queriesDegraded:   tel.Counter("compman.queries_degraded"),
		blocksSubstituted: tel.Counter("compman.blocks_substituted"),
		queryRetries:      tel.Counter("compman.query_retries"),
		queriesOverloaded: tel.Counter("compman.queries_overloaded"),
		latency:           tel.Histogram("compman.query_latency_millis", telemetry.DefaultLatencyBuckets),
	}
}

func (c *statsCollector) recordOK(d time.Duration) {
	c.queriesOK.Inc()
	c.totalQueryMillis.Add(d.Milliseconds())
	c.latency.Observe(d)
}

// recordFailure tallies a refused query; budget refusals and post-charge
// aborts get their own counters on top of the general one.
func (c *statsCollector) recordFailure(budget, charged bool) {
	if budget {
		c.budgetRefusals.Inc()
		return
	}
	c.queriesFailed.Inc()
	if charged {
		c.queriesAborted.Inc()
	}
}

// recordDegraded tallies a successful query that substituted blocks.
func (c *statsCollector) recordDegraded(blocks int) {
	c.queriesDegraded.Inc()
	c.blocksSubstituted.Add(int64(blocks))
}

func (c *statsCollector) recordRetry() {
	c.queryRetries.Inc()
}

// recordOverloaded tallies a zero-ε scheduler refusal (queue full or
// deadline unmeetable). Deliberately not a ServerStats field: the wire
// stats grammar stays version-stable; operators watch
// compman.queries_overloaded on /metrics instead.
func (c *statsCollector) recordOverloaded() {
	c.queriesOverloaded.Inc()
}

// snapshot assembles the wire-compatible ServerStats view. Each field is an
// atomic load; the snapshot is per-counter consistent (see
// telemetry.Registry.Snapshot for the same caveat).
func (c *statsCollector) snapshot() ServerStats {
	return ServerStats{
		QueriesOK:         c.queriesOK.Value(),
		QueriesFailed:     c.queriesFailed.Value(),
		BudgetRefusals:    c.budgetRefusals.Value(),
		QueriesAborted:    c.queriesAborted.Value(),
		QueriesDegraded:   c.queriesDegraded.Value(),
		BlocksSubstituted: c.blocksSubstituted.Value(),
		QueryRetries:      c.queryRetries.Value(),
		TotalQueryMillis:  c.totalQueryMillis.Load(),
	}
}
