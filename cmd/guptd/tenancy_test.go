package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/telemetry"
	"gupt/internal/tenant"
)

// startTenantGuptd assembles the tenancy-enabled deployment guptd's main
// builds with -tenancy -admin-token: a compman server with a tenant
// registry and a token-gated admin endpoint carrying the /tenants routes.
func startTenantGuptd(t *testing.T, reg *dataset.Registry, tenants *tenant.Registry, token string) (string, string) {
	t.Helper()
	tel := telemetry.NewRegistry()
	srv := compman.NewServer(reg, compman.ServerConfig{Telemetry: tel, Tenants: tenants})
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(sl)
	t.Cleanup(func() { srv.Close() })

	al, stopAdmin, err := serveAdmin("127.0.0.1:0", newAdminHandler(tel, reg, nil, srv, tenants, token))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAdmin)
	return sl.Addr().String(), al.Addr().String()
}

func censusRegistry(t *testing.T) *dataset.Registry {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("age\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "%d\n", 30+i%10)
	}
	reg := dataset.NewRegistry()
	if err := registerSpec(reg, "census="+writeCSV(t, sb.String())+":budget=10:header"); err != nil {
		t.Fatal(err)
	}
	return reg
}

// adminDo issues one admin-plane request with an optional token.
func adminDo(t *testing.T, method, url, token string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("X-Admin-Token", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestAdminTokenGate: with -admin-token set, EVERY route the admin plane
// serves — enumerated from the handler's own route table via
// telemetry.AdminRoutePatterns, so a newly added route cannot ship
// ungated — refuses without the token and with a wrong token (uniform
// 401) and answers with it. /healthz alone stays open for load-balancer
// probes.
func TestAdminTokenGate(t *testing.T) {
	const token = "sekrit"
	tenants, err := tenant.Load(filepath.Join(t.TempDir(), "tenants.json"))
	if err != nil {
		t.Fatal(err)
	}
	reg := censusRegistry(t)
	_, admin := startTenantGuptd(t, reg, tenants, token)
	base := "http://" + admin

	patterns := telemetry.AdminRoutePatterns(newAdminConfig(telemetry.NewRegistry(), reg, nil, nil, tenants, token))
	// The enumeration is only trustworthy if it still carries the full
	// surface; a refactor that drops routes from the table would otherwise
	// silently shrink this test.
	for _, want := range []string{
		"/metrics", "/traces", "/queries", "/budget", "/flight", "/workers",
		"/ledger", "/cache", "/datasets", "/healthz", "/debug/pprof/",
		"/tenants", "/tenants/grant", "/tenants/quota", "/tenants/limits", "/tenants/admin",
	} {
		found := false
		for _, p := range patterns {
			if p == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("route table lost %s: %v", want, patterns)
		}
	}

	for _, path := range patterns {
		if path == "/healthz" {
			if code, _ := adminDo(t, http.MethodGet, base+path, "", nil); code != http.StatusOK {
				t.Errorf("/healthz must stay open, got %d", code)
			}
			continue
		}
		if code, _ := adminDo(t, http.MethodGet, base+path, "", nil); code != http.StatusUnauthorized {
			t.Errorf("GET %s without token = %d, want 401", path, code)
		}
		if code, _ := adminDo(t, http.MethodGet, base+path, "wrong", nil); code != http.StatusUnauthorized {
			t.Errorf("GET %s with wrong token = %d, want 401", path, code)
		}
		// With the token the route must answer — 200, or 405 for the
		// POST-only tenant mutations — never 401. The profilers get a
		// 1-second bound so the sweep stays fast.
		fetch := path
		switch path {
		case "/debug/pprof/profile", "/debug/pprof/trace":
			fetch = path + "?seconds=1"
		}
		if code, _ := adminDo(t, http.MethodGet, base+fetch, token, nil); code == http.StatusUnauthorized {
			t.Errorf("GET %s with correct token still 401", path)
		}
	}

	// The Bearer carrier works too.
	req, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("Bearer carrier = %d, want 200", resp.StatusCode)
	}
}

// TestTenantAdminEndToEnd is the two-tenant demo from the acceptance
// criteria, driven entirely through the operator HTTP surface: create two
// tenants over /tenants, grant and quota them, then query as each —
// tenant isolation, quota refusal, and registry persistence all observed
// from the outside.
func TestTenantAdminEndToEnd(t *testing.T) {
	const token = "op-token"
	tenantsFile := filepath.Join(t.TempDir(), "tenants.json")
	tenants, err := tenant.Load(tenantsFile)
	if err != nil {
		t.Fatal(err)
	}
	serverAddr, admin := startTenantGuptd(t, censusRegistry(t), tenants, token)
	base := "http://" + admin

	// /tenants is token-gated like everything else.
	if code, _ := adminDo(t, http.MethodGet, base+"/tenants", "", nil); code != http.StatusUnauthorized {
		t.Fatalf("/tenants without token = %d, want 401", code)
	}

	// Create alice and bob; the raw key appears exactly once, in the reply.
	keys := map[string]string{}
	for _, id := range []string{"alice", "bob"} {
		code, body := adminDo(t, http.MethodPost, base+"/tenants", token, []byte(`{"id":"`+id+`"}`))
		if code != http.StatusOK {
			t.Fatalf("create %s = %d: %s", id, code, body)
		}
		var out struct{ ID, APIKey string }
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.ID != id || !strings.HasPrefix(out.APIKey, "gupt_") {
			t.Fatalf("create %s returned %+v", id, out)
		}
		keys[id] = out.APIKey
	}
	for _, id := range []string{"alice", "bob"} {
		if code, body := adminDo(t, http.MethodPost, base+"/tenants/grant", token,
			[]byte(`{"id":"`+id+`","dataset":"census"}`)); code != http.StatusOK {
			t.Fatalf("grant %s = %d: %s", id, code, body)
		}
	}
	// Alice gets a tight quota; bob rides the global budget.
	if code, body := adminDo(t, http.MethodPost, base+"/tenants/quota", token,
		[]byte(`{"id":"alice","dataset":"census","epsilon":0.5}`)); code != http.StatusOK {
		t.Fatalf("quota = %d: %s", code, body)
	}

	dial := func(key string) *compman.Client {
		c, err := compman.Dial(serverAddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetAPIKey(key)
		return c
	}
	mean := func(c *compman.Client, eps float64) (*compman.Response, error) {
		return c.Query(&compman.Request{
			Dataset:      "census",
			Program:      &compman.ProgramSpec{Type: "mean"},
			OutputRanges: []compman.RangeSpec{{Lo: 0, Hi: 100}},
			Epsilon:      eps,
			Seed:         7,
		})
	}

	alice, bob := dial(keys["alice"]), dial(keys["bob"])
	resp, err := mean(alice, 0.5)
	if err != nil {
		t.Fatalf("alice in-quota query: %v", err)
	}
	if resp.Tenant != "alice" {
		t.Fatalf("response tenant = %q, want alice", resp.Tenant)
	}
	// Alice is now at her ε ceiling; bob is not affected.
	if _, err := mean(alice, 0.5); err == nil {
		t.Fatal("alice's over-quota query must refuse")
	}
	if _, err := mean(bob, 0.5); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
	// An unauthenticated client stays outside.
	anon, err := compman.Dial(serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	if _, err := mean(anon, 0.5); err == nil {
		t.Fatal("keyless client admitted to a tenancy-enabled server")
	}

	// /tenants lists both principals with their live spend, no key material.
	code, body := adminDo(t, http.MethodGet, base+"/tenants", token, nil)
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	if strings.Contains(string(body), "gupt_") || strings.Contains(string(body), "keyHash") {
		t.Fatalf("tenant list leaks key material: %s", body)
	}
	var infos []tenant.Info
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("listed %d tenants, want 2", len(infos))
	}

	// Every mutation persisted: a fresh registry loaded from the same file
	// authenticates the same keys and carries the same grants and quotas.
	reloaded, err := tenant.Load(tenantsFile)
	if err != nil {
		t.Fatal(err)
	}
	for id, key := range keys {
		got, err := reloaded.Authenticate(key)
		if err != nil || got != id {
			t.Fatalf("reloaded registry: Authenticate(%s key) = %q, %v", id, got, err)
		}
	}
	if !reloaded.Authorized("alice", "census") {
		t.Fatal("reloaded registry lost alice's census grant")
	}
}

// TestTenantAdminGrant: the admin capability is granted through the
// operator surface, not by editing the tenants file. A tenant created over
// /tenants is refused the stats op, POST /tenants/admin grants it, the
// stats op is then served, and the grant survives a reload; granting false
// takes it back.
func TestTenantAdminGrant(t *testing.T) {
	const token = "op-token"
	tenantsFile := filepath.Join(t.TempDir(), "tenants.json")
	tenants, err := tenant.Load(tenantsFile)
	if err != nil {
		t.Fatal(err)
	}
	serverAddr, admin := startTenantGuptd(t, censusRegistry(t), tenants, token)
	base := "http://" + admin

	code, body := adminDo(t, http.MethodPost, base+"/tenants", token, []byte(`{"id":"carol"}`))
	if code != http.StatusOK {
		t.Fatalf("create = %d: %s", code, body)
	}
	var created struct{ APIKey string }
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	c, err := compman.Dial(serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetAPIKey(created.APIKey)

	setAdmin := func(on bool) {
		t.Helper()
		if code, body := adminDo(t, http.MethodPost, base+"/tenants/admin", token,
			[]byte(fmt.Sprintf(`{"id":"carol","admin":%v}`, on))); code != http.StatusOK {
			t.Fatalf("admin %v = %d: %s", on, code, body)
		}
	}
	if _, err := c.Stats(); err == nil || !strings.Contains(err.Error(), "not authorized for the stats op") {
		t.Fatalf("stats before the grant: err = %v, want an authorization refusal", err)
	}
	setAdmin(true)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after the grant: %v", err)
	}
	reloaded, err := tenant.Load(tenantsFile)
	if err != nil {
		t.Fatal(err)
	}
	if !reloaded.IsAdmin("carol") {
		t.Fatal("the admin grant was not persisted")
	}
	setAdmin(false)
	if _, err := c.Stats(); err == nil {
		t.Fatal("stats served after the grant was taken back")
	}
	if code, _ := adminDo(t, http.MethodPost, base+"/tenants/admin", token, []byte(`{"id":"nobody","admin":true}`)); code != http.StatusBadRequest {
		t.Errorf("admin grant to an unknown tenant = %d, want 400", code)
	}
}
