package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// `tenant admin <id> <bool>` posts {"id", "admin"} to /tenants/admin with
// the admin token, and refuses a value that is not a boolean.
func TestTenantAdminVerb(t *testing.T) {
	type post struct {
		path, token string
		body        map[string]any
	}
	posts := make(chan post, 2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := post{path: r.URL.Path, token: r.Header.Get("X-Admin-Token")}
		if err := json.NewDecoder(r.Body).Decode(&p.body); err != nil {
			t.Error(err)
		}
		posts <- p
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	if err := runTenant([]string{"admin", "carol", "true", "-admin", addr, "-token", "tok"}); err != nil {
		t.Fatal(err)
	}
	p := <-posts
	if path, token, body := p.path, p.token, p.body; path != "/tenants/admin" || token != "tok" || body["id"] != "carol" || body["admin"] != true {
		t.Errorf("posted %s (token %q) %v, want /tenants/admin (token tok) {id: carol, admin: true}", path, token, body)
	}
	if err := runTenant([]string{"admin", "carol", "maybe", "-admin", addr}); err == nil {
		t.Error("a non-boolean admin value was accepted")
	}
}
