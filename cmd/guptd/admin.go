package main

import (
	"log"
	"net"
	"net/http"
	"time"

	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/ledger"
	"gupt/internal/qcache"
	"gupt/internal/telemetry"
	"gupt/internal/tenant"
)

// newAdminHandler assembles guptd's admin endpoint: the shared telemetry
// registry at /metrics (JSON or Prometheus text by content negotiation),
// per-dataset budget state at /datasets, the durable ledger's status at
// /ledger (per-tenant spend slices via ?tenant=), the server's flight
// recorder at /queries (open queries), /flight (recent query timelines)
// and /traces (their traces), the ε burn-down plane at /budget, tenant
// administration at /tenants (tenancy mode only), /healthz, and
// /debug/pprof/. A non-empty token gates everything but /healthz. The
// endpoint is operator-facing — bind it to loopback or an ops network,
// never the analyst-facing address (see SECURITY.md, "Telemetry and the
// observability side channel").
func newAdminHandler(tel *telemetry.Registry, reg *dataset.Registry, led *ledger.Ledger, srv *compman.Server, tenants *tenant.Registry, token string) http.Handler {
	return telemetry.AdminHandler(newAdminConfig(tel, reg, led, srv, tenants, token))
}

// newAdminConfig builds the admin plane's wiring; split from
// newAdminHandler so tests can enumerate the exact route set via
// telemetry.AdminRoutePatterns and assert the token gate over all of it.
func newAdminConfig(tel *telemetry.Registry, reg *dataset.Registry, led *ledger.Ledger, srv *compman.Server, tenants *tenant.Registry, token string) telemetry.AdminConfig {
	cfg := telemetry.AdminConfig{
		Registry: tel,
		Health:   func() error { return nil },
		Datasets: func() []telemetry.DatasetStats { return datasetStats(tel, reg) },
		Ledger:   func() telemetry.LedgerStatus { return ledgerStatus(led) },
		Token:    token,
	}
	if srv != nil {
		cfg.Recorder = srv.Recorder()
		cfg.Cache = func() telemetry.CacheStatus { return cacheStatus(srv.CacheStats()) }
		cfg.Workers = srv.WorkerStats
		cfg.Budget = srv.BudgetRows
	}
	if tenants != nil {
		cfg.Extra = tenantHandlers(tenants)
		cfg.TenantSpend = func(id string) []telemetry.TenantSpendRow { return tenantSpend(tenants, id) }
	}
	return cfg
}

// tenantSpend builds one tenant's /ledger?tenant= slice: ε spent per
// dataset, with the quota ceiling where one is configured.
func tenantSpend(tenants *tenant.Registry, id string) []telemetry.TenantSpendRow {
	spent := tenants.SpentByDataset(id)
	rows := make([]telemetry.TenantSpendRow, 0, len(spent))
	for ds, s := range spent {
		_, quota, limited := tenants.QuotaState(id, ds)
		rows = append(rows, telemetry.TenantSpendRow{
			Dataset:      ds,
			SpentEpsilon: s,
			QuotaEpsilon: quota,
			Unlimited:    !limited,
		})
	}
	return rows
}

// cacheStatus maps the noisy-answer cache's counters onto the admin wire
// form; a disabled cache (MaxEntries 0) reports Enabled: false.
func cacheStatus(st qcache.Stats) telemetry.CacheStatus {
	return telemetry.CacheStatus{
		Enabled:       st.MaxEntries > 0,
		Entries:       st.Entries,
		MaxEntries:    st.MaxEntries,
		Bytes:         st.Bytes,
		TTLSeconds:    st.TTLSeconds,
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		Expirations:   st.Expirations,
		Invalidations: st.Invalidations,
	}
}

// ledgerStatus maps the ledger's operational state onto the admin wire
// form; a nil ledger reports Enabled: false.
func ledgerStatus(led *ledger.Ledger) telemetry.LedgerStatus {
	if led == nil {
		return telemetry.LedgerStatus{SnapshotAgeSeconds: -1}
	}
	st := led.Status()
	age := -1.0
	if !st.SnapshotAt.IsZero() {
		age = time.Since(st.SnapshotAt).Seconds()
	}
	return telemetry.LedgerStatus{
		Enabled:            true,
		Dir:                st.Dir,
		SyncPolicy:         st.SyncPolicy,
		Records:            st.Records,
		SyncedRecords:      st.Synced,
		WALBytes:           st.WALBytes,
		Datasets:           st.Datasets,
		LastFsync:          st.LastFsync,
		SnapshotSeq:        st.SnapshotSeq,
		SnapshotAt:         st.SnapshotAt,
		SnapshotAgeSeconds: age,
		RecoveredTornTail:  st.RecoveredTornTail,
		Poisoned:           st.Poisoned,
	}
}

// datasetStats builds the /datasets rows: the accountant's ledger state
// plus the per-dataset refusal counter the budget manager maintains.
func datasetStats(tel *telemetry.Registry, reg *dataset.Registry) []telemetry.DatasetStats {
	names := reg.Names()
	stats := make([]telemetry.DatasetStats, 0, len(names))
	for _, name := range names {
		r, err := reg.Lookup(name)
		if err != nil {
			continue // unregistered between Names and Lookup
		}
		acct := r.Accountant
		stats = append(stats, telemetry.DatasetStats{
			Name:             name,
			TotalEpsilon:     acct.Total(),
			SpentEpsilon:     acct.Spent(),
			RemainingEpsilon: acct.Remaining(),
			Queries:          acct.Queries(),
			Refusals:         tel.Counter("budget.refusals." + name).Value(),
		})
	}
	return stats
}

// serveAdmin starts the admin HTTP server on addr and returns its
// listener (so callers learn the bound address for ":0") and a shutdown
// func. Serving errors after startup go to the process log.
func serveAdmin(addr string, handler http.Handler) (net.Listener, func(), error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: handler}
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			log.Printf("admin server: %v", err)
		}
	}()
	return l, func() { srv.Close() }, nil
}
