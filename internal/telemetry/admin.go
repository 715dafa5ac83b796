package telemetry

import (
	"crypto/subtle"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// DatasetStats is the per-dataset operator view served at /datasets. The
// epsilon figures are platform-side ledger state (the accountant), which
// the protocol already exposes to analysts via the budget op; the counters
// are coarse event counts. Nothing here derives from record values.
type DatasetStats struct {
	Name string `json:"name"`
	// TotalEpsilon / SpentEpsilon / RemainingEpsilon are the dataset's
	// lifetime budget ledger.
	TotalEpsilon     float64 `json:"totalEpsilon"`
	SpentEpsilon     float64 `json:"spentEpsilon"`
	RemainingEpsilon float64 `json:"remainingEpsilon"`
	// Queries counts settled charges (each successful charge is one query
	// or one session batch).
	Queries int `json:"queries"`
	// Refusals counts charges rejected for insufficient budget — the normal
	// end-of-life signal for a dataset.
	Refusals int64 `json:"refusals"`
}

// LedgerStatus is the durable-ledger operator view served at /ledger.
// Everything here is platform metadata — record counts, fsync and snapshot
// timestamps — never ε values per query or anything derived from records.
type LedgerStatus struct {
	// Enabled is false when the server runs without a durable ledger
	// (budget state is then lost on crash; see SECURITY.md).
	Enabled bool `json:"enabled"`
	// Dir is the ledger directory.
	Dir string `json:"dir,omitempty"`
	// SyncPolicy is the configured fsync policy ("every-record",
	// "batched").
	SyncPolicy string `json:"syncPolicy,omitempty"`
	// Records is the lifetime record count (highest sequence number).
	Records uint64 `json:"records"`
	// SyncedRecords is the durable watermark; Records - SyncedRecords is
	// the volatile tail a crash right now would replay provisionally.
	SyncedRecords uint64 `json:"syncedRecords"`
	// WALBytes is the current write-ahead log size.
	WALBytes int64 `json:"walBytes"`
	// Datasets counts datasets with ledger state.
	Datasets int `json:"datasets"`
	// LastFsync is the completion time of the most recent fsync.
	LastFsync time.Time `json:"lastFsync"`
	// SnapshotSeq and SnapshotAt describe the newest compaction snapshot;
	// SnapshotAgeSeconds is its age at serve time (-1 when none exists).
	SnapshotSeq        uint64    `json:"snapshotSeq"`
	SnapshotAt         time.Time `json:"snapshotAt"`
	SnapshotAgeSeconds float64   `json:"snapshotAgeSeconds"`
	// RecoveredTornTail reports that boot-time recovery truncated a torn
	// final record (expected after a crash mid-append, not during clean
	// operation).
	RecoveredTornTail bool `json:"recoveredTornTail"`
	// Poisoned, when non-empty, is the error that put the ledger into its
	// fail-closed state (a WAL swap whose rename could not be made
	// durable); all charges are being refused until the operator
	// intervenes.
	Poisoned string `json:"poisoned,omitempty"`
}

// CacheStatus is the noisy-answer-cache operator view served at /cache.
// It mirrors qcache.Stats (telemetry must not import qcache, which depends
// on this package for its counters): event counts and sizes only, never
// fingerprints or cached answers.
type CacheStatus struct {
	// Enabled is false when the server runs with the cache off
	// (-cache-entries 0); all other fields are then zero.
	Enabled       bool  `json:"enabled"`
	Entries       int   `json:"entries"`
	MaxEntries    int   `json:"maxEntries"`
	Bytes         int64 `json:"bytes"`
	TTLSeconds    int64 `json:"ttlSeconds"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Expirations   int64 `json:"expirations"`
	Invalidations int64 `json:"invalidations"`
}

// WorkerStatus is one worker's row in the fleet view served at /workers.
// It is defined here (not in compman, which depends on this package) so
// the pool can hand snapshots to the admin plane without an import cycle.
// Everything is platform-side accounting — addresses, counts, health —
// never record values or query parameters.
type WorkerStatus struct {
	// Addr is the worker daemon's dial address.
	Addr string `json:"addr"`
	// Conns is how many connections have been dialed to this worker;
	// MaxConns is its connection budget (the per-worker concurrency cap).
	Conns    int `json:"conns"`
	MaxConns int `json:"maxConns"`
	// Inflight is the number of blocks currently dispatched to this worker.
	Inflight int64 `json:"inflight"`
	// Done counts answered blocks (including application-level errors:
	// those replies prove the worker healthy). Failed counts
	// transport-level failures.
	Done   int64 `json:"done"`
	Failed int64 `json:"failed"`
	// Unhealthy reports that consecutive transport failures have demoted
	// this worker to last-resort in block assignment until it answers again.
	Unhealthy bool `json:"unhealthy"`
}

// TenantSpendRow is one dataset's row in the per-tenant /ledger?tenant=
// slice: how much ε the tenant has spent there and what its quota is.
type TenantSpendRow struct {
	Dataset      string  `json:"dataset"`
	SpentEpsilon float64 `json:"spentEpsilon"`
	// QuotaEpsilon is the tenant's ε quota on the dataset; Unlimited marks
	// a grant without a quota.
	QuotaEpsilon float64 `json:"quotaEpsilon,omitempty"`
	Unlimited    bool    `json:"unlimited,omitempty"`
}

// TenantLedgerSlice is the /ledger?tenant=<id> response: the tenant's
// per-dataset spend, recovered from the same WAL replay that seeds the
// quota keeper.
type TenantLedgerSlice struct {
	Tenant   string           `json:"tenant"`
	Datasets []TenantSpendRow `json:"datasets"`
}

// AdminConfig wires the admin HTTP handler to a live server.
type AdminConfig struct {
	// Registry is the metrics registry served at /metrics.
	Registry *Registry
	// Datasets supplies the per-dataset rows for /datasets; nil serves an
	// empty list.
	Datasets func() []DatasetStats
	// Ledger supplies the durable-ledger status for /ledger; nil serves
	// {"enabled": false}.
	Ledger func() LedgerStatus
	// Cache supplies the noisy-answer-cache status for /cache; nil serves
	// {"enabled": false}.
	Cache func() CacheStatus
	// Health reports serving health for /healthz; nil means always healthy.
	Health func() error
	// Recorder is the per-query record behind three routes: /queries
	// serves its open traces, /flight its ring of settled flights and
	// /traces the trace snapshot inside each ring entry (bucketed durations
	// only). Nil serves empty lists on all three.
	Recorder *FlightRecorder
	// Workers supplies the per-worker fleet rows for /workers; nil serves
	// an empty list (local execution, no fleet).
	Workers func() []WorkerStatus
	// Budget supplies the ε burn-down rows for /budget; nil serves an
	// empty list.
	Budget func() []BudgetRow
	// TenantSpend supplies one tenant's per-dataset spend for
	// /ledger?tenant=<id>; nil means the tenant slice is unavailable and
	// /ledger always serves the global LedgerStatus.
	TenantSpend func(tenant string) []TenantSpendRow
	// Token, when non-empty, gates every route except /healthz behind a
	// shared admin secret: requests must carry it as `Authorization: Bearer
	// <token>` or `X-Admin-Token: <token>`. Comparison is constant-time.
	// /healthz stays open — load balancers probe it and it reveals nothing.
	Token string
	// Extra mounts additional operator routes (e.g. guptd's /tenants) on
	// the same mux, behind the same token gate.
	Extra map[string]http.Handler
}

// AdminHandler builds the guptd admin endpoint:
//
//	/metrics       registry snapshot: Prometheus text format when the
//	               Accept header asks for text/plain or openmetrics (or
//	               ?format=prometheus), the JSON Snapshot otherwise —
//	               bucketed timings only, in both formats
//	/healthz       200 "ok" or 503 with the health error
//	/datasets      JSON []DatasetStats, sorted by name
//	/ledger        JSON LedgerStatus for the durable budget ledger;
//	               ?tenant=<id> serves that tenant's per-dataset spend
//	/cache         JSON CacheStatus for the noisy-answer cache
//	/traces        JSON []TraceSnapshot, newest first (the trace of each
//	               recorded flight: cross-process spans, durations
//	               bucketed); ?tenant=<id> narrows to one tenant's queries
//	/queries       JSON []InflightSnapshot, oldest first (the recorder's
//	               open traces: stage + elapsed bucket); ?tenant=<id> narrows
//	/workers       JSON []WorkerStatus (fleet skew: per-worker in-flight,
//	               answered/failed counts, health)
//	/budget        JSON []BudgetRow (ε burn-down: remaining budget, EWMA
//	               burn rate, time-to-exhaustion per tenant/dataset);
//	               ?tenant=<id> narrows
//	/flight        JSON []FlightRecord (the query flight recorder, newest
//	               first); ?tenant=<id> narrows
//	/debug/pprof/  the standard net/http/pprof profiling surface
//
// The handler is for the operator's loopback/ops network. It intentionally
// exports only what SECURITY.md classifies as safe for operators; see the
// "Telemetry and the observability side channel" section before exposing
// it any wider.
func AdminHandler(cfg AdminConfig) http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range adminRoutes(cfg) {
		mux.Handle(pattern, h)
	}
	if cfg.Token == "" {
		return mux
	}
	return tokenGate(cfg.Token, mux)
}

// AdminRoutePatterns lists every route pattern the handler serves for the
// given config, sorted — the source of truth for guptd's startup log and
// for the token-gating test that asserts no route ships ungated.
func AdminRoutePatterns(cfg AdminConfig) []string {
	routes := adminRoutes(cfg)
	patterns := make([]string, 0, len(routes))
	for p := range routes {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	return patterns
}

// adminRoutes builds the route table; AdminHandler registers it and
// AdminRoutePatterns enumerates it, so the two can never drift.
func adminRoutes(cfg AdminConfig) map[string]http.Handler {
	routes := map[string]http.Handler{}
	handle := func(pattern string, h http.HandlerFunc) { routes[pattern] = h }

	handle("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Health != nil {
			if err := cfg.Health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})

	sampler := NewRuntimeSampler(cfg.Registry)
	handle("/metrics", func(w http.ResponseWriter, req *http.Request) {
		sampler.Sample()
		snap := cfg.Registry.Snapshot()
		if wantsPrometheus(req) {
			w.Header().Set("Content-Type", PrometheusContentType)
			_ = WritePrometheus(w, snap)
			return
		}
		writeJSON(w, snap)
	})

	handle("/traces", func(w http.ResponseWriter, req *http.Request) {
		writeTenantList(w, req, cfg.Recorder.Traces(), func(t TraceSnapshot) string { return t.Tenant })
	})

	handle("/queries", func(w http.ResponseWriter, req *http.Request) {
		writeTenantList(w, req, cfg.Recorder.Live(), func(q InflightSnapshot) string { return q.Tenant })
	})

	handle("/workers", func(w http.ResponseWriter, req *http.Request) {
		var workers []WorkerStatus
		if cfg.Workers != nil {
			workers = cfg.Workers()
		}
		if workers == nil {
			workers = []WorkerStatus{}
		}
		writeJSON(w, workers)
	})

	handle("/budget", func(w http.ResponseWriter, req *http.Request) {
		var rows []BudgetRow
		if cfg.Budget != nil {
			rows = cfg.Budget()
		}
		writeTenantList(w, req, rows, func(r BudgetRow) string { return r.Tenant })
	})

	handle("/flight", func(w http.ResponseWriter, req *http.Request) {
		writeTenantList(w, req, cfg.Recorder.Snapshots(), func(f FlightRecord) string { return f.Tenant })
	})

	handle("/ledger", func(w http.ResponseWriter, req *http.Request) {
		if tenant := tenantParam(req); tenant != "" && cfg.TenantSpend != nil {
			rows := cfg.TenantSpend(tenant)
			if rows == nil {
				rows = []TenantSpendRow{}
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].Dataset < rows[j].Dataset })
			writeJSON(w, TenantLedgerSlice{Tenant: tenant, Datasets: rows})
			return
		}
		var st LedgerStatus
		if cfg.Ledger != nil {
			st = cfg.Ledger()
		}
		writeJSON(w, st)
	})

	handle("/cache", func(w http.ResponseWriter, req *http.Request) {
		var st CacheStatus
		if cfg.Cache != nil {
			st = cfg.Cache()
		}
		writeJSON(w, st)
	})

	handle("/datasets", func(w http.ResponseWriter, req *http.Request) {
		var stats []DatasetStats
		if cfg.Datasets != nil {
			stats = cfg.Datasets()
		}
		if stats == nil {
			stats = []DatasetStats{}
		}
		sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
		writeJSON(w, stats)
	})

	handle("/debug/pprof/", pprof.Index)
	handle("/debug/pprof/cmdline", pprof.Cmdline)
	handle("/debug/pprof/profile", pprof.Profile)
	handle("/debug/pprof/symbol", pprof.Symbol)
	handle("/debug/pprof/trace", pprof.Trace)

	for pattern, h := range cfg.Extra {
		routes[pattern] = h
	}
	return routes
}

// tenantParam extracts the shared ?tenant=<id> narrowing parameter.
func tenantParam(req *http.Request) string {
	return req.URL.Query().Get("tenant")
}

// writeTenantList serves items as a JSON array (never null), narrowed to
// the request's ?tenant=<id> when one is given. The tenant id is
// operator-visible metadata the audit log and ledger already record per
// query, so narrowing by it reveals nothing new; an unknown tenant gets an
// empty array, not an error.
func writeTenantList[T any](w http.ResponseWriter, req *http.Request, items []T, tenantOf func(T) string) {
	kept := make([]T, 0, len(items))
	tenant := tenantParam(req)
	for _, it := range items {
		if tenant == "" || tenantOf(it) == tenant {
			kept = append(kept, it)
		}
	}
	writeJSON(w, kept)
}

// tokenGate requires the admin token on every route except /healthz. Both
// accepted carriers compare in constant time against the configured secret;
// the refusal is uniform (401, no detail) whether the token is absent or
// wrong.
func tokenGate(token string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" {
			next.ServeHTTP(w, req)
			return
		}
		presented := req.Header.Get("X-Admin-Token")
		if presented == "" {
			presented = strings.TrimPrefix(req.Header.Get("Authorization"), "Bearer ")
		}
		if subtle.ConstantTimeCompare([]byte(presented), []byte(token)) != 1 {
			http.Error(w, "admin token required", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, req)
	})
}

// wantsPrometheus decides the /metrics representation. The JSON snapshot
// stays the default (existing dashboards and the gupt-cli admin table
// parse it); Prometheus scrapers advertise text/plain or openmetrics in
// Accept, and ?format=prometheus / ?format=json force either one.
func wantsPrometheus(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := req.Header.Get("Accept")
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding a Snapshot or []DatasetStats cannot fail; an Encode error
	// here means the client went away, which http handles.
	_ = enc.Encode(v)
}
