package compman

import (
	"errors"
	"strings"
	"testing"

	"gupt/internal/dp"
	"gupt/internal/tenant"
)

// startTenantServer spins up a tenancy-enabled server over the census
// dataset with two tenants: alice (granted census) and bob (granted "*",
// admin). It returns the server, the registry, and each tenant's raw API
// key — the only time raw keys exist, same as production.
func startTenantServer(t *testing.T, totalBudget float64, cfg ServerConfig) (*Server, *tenant.Registry, map[string]string) {
	t.Helper()
	tenants := tenant.NewRegistry()
	keys := make(map[string]string)
	for _, id := range []string{"alice", "bob"} {
		key, err := tenants.Create(id)
		if err != nil {
			t.Fatal(err)
		}
		keys[id] = key
	}
	if err := tenants.Grant("alice", "census"); err != nil {
		t.Fatal(err)
	}
	if err := tenants.Grant("bob", "*"); err != nil {
		t.Fatal(err)
	}
	if err := tenants.SetAdmin("bob", true); err != nil {
		t.Fatal(err)
	}
	cfg.Tenants = tenants
	_, srv := startServerCfg(t, totalBudget, cfg)
	return srv, tenants, keys
}

// dialAs connects a fresh client authenticated with the given API key.
func dialAs(t *testing.T, srv *Server, key string) *Client {
	t.Helper()
	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	client.SetAPIKey(key)
	return client
}

// TestTenancyAdmission is the front door's core contract: a valid key is
// admitted and its queries are tenant-attributed; a missing, wrong, or
// disabled key is refused with one uniform error before any charge.
func TestTenancyAdmission(t *testing.T) {
	srv, tenants, keys := startTenantServer(t, 100, ServerConfig{})

	alice := dialAs(t, srv, keys["alice"])
	resp, err := alice.Query(meanQuery(0.5, 250))
	if err != nil {
		t.Fatalf("alice query: %v", err)
	}
	if resp.Tenant != "alice" {
		t.Errorf("response tenant = %q, want alice", resp.Tenant)
	}
	if got := tenants.Spent("alice", "census"); got != 0.5 {
		t.Errorf("alice quota accounting = %v, want 0.5", got)
	}

	for name, key := range map[string]string{
		"no key":    "",
		"wrong key": "gupt_" + strings.Repeat("00", 24),
	} {
		bad := dialAs(t, srv, key)
		_, err := bad.Query(meanQuery(0.5, 250))
		if err == nil || !strings.Contains(err.Error(), tenant.ErrUnauthenticated.Error()) {
			t.Errorf("%s: err = %v, want uniform unauthenticated refusal", name, err)
		}
		var qe *QueryError
		if errors.As(err, &qe) && qe.EpsilonCharged != 0 {
			t.Errorf("%s: refusal charged %v ε", name, qe.EpsilonCharged)
		}
	}
}

// TestTenantAuthorizationScopesDatasets checks grants gate both querying
// and listing, and that dataset registration is admin-only.
func TestTenantAuthorizationScopesDatasets(t *testing.T) {
	srv, tenants, keys := startTenantServer(t, 100, ServerConfig{})
	if err := tenants.Grant("carol", "nothing"); err == nil {
		t.Fatal("granting an unknown tenant must fail")
	}

	alice := dialAs(t, srv, keys["alice"])
	bob := dialAs(t, srv, keys["bob"])

	// Alice holds a grant for census only; an ungranted dataset refuses
	// identically whether or not it exists (no namespace probing).
	if _, err := alice.Query(meanQuery(0.5, 250)); err != nil {
		t.Fatalf("granted query: %v", err)
	}
	for _, ds := range []string{"secret", "census2"} {
		q := meanQuery(0.5, 250)
		q.Dataset = ds
		_, err := alice.Query(q)
		if err == nil || !strings.Contains(err.Error(), "not authorized") {
			t.Errorf("dataset %q: err = %v, want authorization refusal", ds, err)
		}
	}

	// Listing shows each tenant only its granted datasets.
	names, err := alice.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "census" {
		t.Errorf("alice sees %v, want [census]", names)
	}

	// Registration is the data-owner interface: bob (admin) may, alice not.
	spec := &RegisterSpec{Name: "new-ds", Columns: []string{"x"}, Rows: [][]float64{{1}, {2}, {3}}, TotalBudget: 1}
	if err := alice.RegisterDataset(spec); err == nil || !strings.Contains(err.Error(), "not authorized") {
		t.Errorf("non-admin register: err = %v, want authorization refusal", err)
	}
	if err := bob.RegisterDataset(spec); err != nil {
		t.Errorf("admin register: %v", err)
	}
}

// The stats op reports every tenant's queries, so under tenancy it is
// admin-only, gated like registration: a refusal moves no ε and counts as
// an authorization refusal.
func TestTenantStatsAdminOnly(t *testing.T) {
	srv, _, keys := startTenantServer(t, 100, ServerConfig{})
	alice := dialAs(t, srv, keys["alice"])
	bob := dialAs(t, srv, keys["bob"])
	if _, err := alice.Query(meanQuery(0.5, 250)); err != nil {
		t.Fatal(err)
	}

	refusals := srv.Telemetry().Counter("tenant.authz_refusals")
	before := refusals.Value()
	_, err := alice.Stats()
	if err == nil || !strings.Contains(err.Error(), "not authorized") {
		t.Errorf("non-admin stats: err = %v, want an authorization refusal", err)
	}
	var qe *QueryError
	if errors.As(err, &qe) && qe.EpsilonCharged != 0 {
		t.Errorf("stats refusal charged %v ε", qe.EpsilonCharged)
	}
	if got := refusals.Value() - before; got != 1 {
		t.Errorf("tenant.authz_refusals moved by %d, want 1", got)
	}

	stats, err := bob.Stats()
	if err != nil {
		t.Fatalf("admin stats: %v", err)
	}
	if stats.QueriesOK != 1 {
		t.Errorf("admin sees QueriesOK = %d, want alice's 1", stats.QueriesOK)
	}
}

// TestTenantQuotaIsolation is the tenancy tentpole's budget contract:
// exhausting tenant A's quota must not block tenant B, must not move the
// dataset-global budget, and must classify as a budget refusal.
func TestTenantQuotaIsolation(t *testing.T) {
	srv, tenants, keys := startTenantServer(t, 100, ServerConfig{})
	if err := tenants.SetQuota("alice", "census", 0.5); err != nil {
		t.Fatal(err)
	}

	alice := dialAs(t, srv, keys["alice"])
	bob := dialAs(t, srv, keys["bob"])

	if _, err := alice.Query(meanQuery(0.5, 250)); err != nil {
		t.Fatalf("in-quota query: %v", err)
	}
	remBefore, err := bob.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}

	// Alice is at her ceiling: the next charge refuses at the quota layer,
	// before anything durable, so the global budget must not move.
	_, err = alice.Query(meanQuery(0.25, 250))
	if err == nil || !strings.Contains(err.Error(), dp.ErrBudgetExhausted.Error()) {
		t.Fatalf("over-quota query: err = %v, want budget refusal", err)
	}
	var qe *QueryError
	if errors.As(err, &qe) && qe.EpsilonCharged != 0 {
		t.Errorf("quota refusal charged %v ε", qe.EpsilonCharged)
	}
	remAfter, err := bob.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if remAfter != remBefore {
		t.Errorf("global budget moved on a quota refusal: %v -> %v", remBefore, remAfter)
	}

	// Bob is unaffected by alice's exhaustion.
	if _, err := bob.Query(meanQuery(0.5, 250)); err != nil {
		t.Errorf("bob blocked by alice's quota: %v", err)
	}
	if got := tenants.Spent("alice", "census"); got != 0.5 {
		t.Errorf("alice spent = %v after refusal, want 0.5", got)
	}
}

// TestRateLimitRejectionChargesZero: a tenant over its QPS policy is
// rejected with a Retry-After hint and zero ε movement, global and quota.
func TestRateLimitRejectionChargesZero(t *testing.T) {
	srv, tenants, keys := startTenantServer(t, 100, ServerConfig{})
	// One-token burst, glacial refill: the second immediate query rejects.
	if err := tenants.SetLimits("alice", 0.0001, 1, 0); err != nil {
		t.Fatal(err)
	}
	alice := dialAs(t, srv, keys["alice"])
	bob := dialAs(t, srv, keys["bob"])

	if _, err := alice.Query(meanQuery(0.5, 250)); err != nil {
		t.Fatalf("first query: %v", err)
	}
	remBefore, err := bob.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	_, err = alice.Query(meanQuery(0.5, 250))
	var qe *QueryError
	if !errors.As(err, &qe) || !strings.Contains(qe.Msg, "rate limited") {
		t.Fatalf("second query: err = %v, want rate-limit rejection", err)
	}
	if qe.RetryAfterMillis <= 0 {
		t.Errorf("RetryAfterMillis = %d, want a positive backoff hint", qe.RetryAfterMillis)
	}
	if qe.EpsilonCharged != 0 {
		t.Errorf("rate-limit rejection charged %v ε", qe.EpsilonCharged)
	}
	remAfter, err := bob.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if remAfter != remBefore {
		t.Errorf("global budget moved on a rate-limit rejection: %v -> %v", remBefore, remAfter)
	}
	if got := tenants.Spent("alice", "census"); got != 0.5 {
		t.Errorf("alice quota moved on a rejection: %v, want 0.5", got)
	}
	// Bob's independent bucket admits him.
	if _, err := bob.Query(meanQuery(0.5, 250)); err != nil {
		t.Errorf("bob rate-limited by alice's flood: %v", err)
	}
}

// TestTenantPartitionedCache: an identical query is a cache hit for the
// tenant that released it but a fresh (charged) run for any other tenant —
// tenant B can never probe tenant A's query history through hit/miss.
func TestTenantPartitionedCache(t *testing.T) {
	srv, _, keys := startTenantServer(t, 100, ServerConfig{CacheEntries: 64})
	alice := dialAs(t, srv, keys["alice"])
	bob := dialAs(t, srv, keys["bob"])

	q := meanQuery(0.5, 250)
	first, err := alice.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first release flagged as cache hit")
	}
	repeat, err := alice.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.CacheHit || repeat.EpsilonCharged != 0 {
		t.Errorf("same-tenant repeat: hit=%v charged=%v, want free hit", repeat.CacheHit, repeat.EpsilonCharged)
	}
	cross, err := bob.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if cross.CacheHit {
		t.Error("cross-tenant repeat served from another tenant's cache partition")
	}
	if cross.EpsilonCharged != 0.5 {
		t.Errorf("cross-tenant repeat charged %v, want a fresh 0.5 charge", cross.EpsilonCharged)
	}
}

// TestTenancyOffBackwardCompatible: without a tenant registry the server
// behaves exactly as before — keyless clients admitted, key-bearing clients
// admitted too (the key is simply ignored), no tenant echo.
func TestTenancyOffBackwardCompatible(t *testing.T) {
	client, _ := startServer(t, 100)
	client.SetAPIKey("gupt_deadbeef") // must be harmless
	resp, err := client.Query(meanQuery(0.5, 250))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "" {
		t.Errorf("single-tenant response echoes tenant %q", resp.Tenant)
	}
}
