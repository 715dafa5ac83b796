package compman

import (
	"runtime"
	"testing"
	"time"

	"gupt/internal/allocguard"
	"gupt/internal/ledger"
	"gupt/internal/telemetry"
	"gupt/internal/telemetry/audit"
	"gupt/internal/tenant"
)

// A long-running server must not keep memory per query it has answered:
// with the ledger, tenancy, the audit log and the cache all on, the live
// heap after a further 10,000 distinct queries may grow by less than 32
// bytes a query. The rings and the cache fill during the first 2,000; what
// grew after that at the parent commit — 166 B a query — was the
// accountant's per-charge log and the burn-down plane's per-charge window.
func TestServerRetainedBytesPerQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("12,000 served queries")
	}
	allocguard.SkipUnderRace(t, "12,000 served queries are too slow under the race detector")

	reg := censusRegistry(t, 1e9)
	led, err := ledger.Open(t.TempDir(), ledger.Options{Sync: ledger.SyncBatched})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if err := ledger.Attach(led, reg); err != nil {
		t.Fatal(err)
	}
	alog, err := audit.Open(t.TempDir(), audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer alog.Close()
	tenants := tenant.NewRegistry()
	key, err := tenants.Create("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := tenants.Grant("alice", "census"); err != nil {
		t.Fatal(err)
	}
	client, _ := startCachedServer(t, reg, ServerConfig{
		Telemetry:    telemetry.NewRegistry(),
		Audit:        alog,
		Tenants:      tenants,
		CacheEntries: 256,
		CacheTTL:     10 * time.Minute,
	})
	client.SetAPIKey(key)

	seed := int64(0)
	serve := func(n int) {
		req := meanQuery(0.001, 250)
		for i := 0; i < n; i++ {
			seed++
			req.Seed = seed // distinct query: a cache miss, a charge and a fill
			if _, err := client.Query(req); err != nil {
				t.Fatalf("query %d: %v", seed, err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second pass drops what sync.Pool held over the first
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	serve(2000)
	before := liveHeap()
	const n = 10000
	serve(n)
	after := liveHeap()
	if grown := int64(after) - int64(before); grown >= 32*n {
		t.Errorf("live heap grew %d bytes over %d queries (%d B/query), want < 32 B/query", grown, n, grown/n)
	} else {
		t.Logf("live heap grew %d bytes over %d queries (%d B/query)", grown, n, grown/n)
	}
}
