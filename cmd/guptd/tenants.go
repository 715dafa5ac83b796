package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"

	"gupt/internal/tenant"
)

// tenantHandlers builds the /tenants operator routes. They live on the
// admin plane (behind the -admin-token gate, never the analyst wire):
//
//	GET  /tenants        sanitized tenant list (grants, quotas, live spend
//	                     — key hashes and raw keys never appear)
//	POST /tenants        {"id": "..."} creates a tenant; the response
//	                     carries the raw API key, the only time it exists
//	POST /tenants/grant  {"id": "...", "dataset": "..."} ("*" = all)
//	POST /tenants/quota  {"id": "...", "dataset": "...", "epsilon": F}
//	POST /tenants/limits {"id": "...", "qps": F, "burst": N, "maxInflight": N}
//	POST /tenants/admin  {"id": "...", "admin": bool} (dataset registration
//	                     and the stats op over the analyst wire)
//
// Every mutation persists the registry to its -tenants-file before
// answering, so an acknowledged change survives a restart.
func tenantHandlers(tenants *tenant.Registry) map[string]http.Handler {
	type grantReq struct {
		ID      string `json:"id"`
		Dataset string `json:"dataset"`
	}
	type quotaReq struct {
		ID      string  `json:"id"`
		Dataset string  `json:"dataset"`
		Epsilon float64 `json:"epsilon"`
	}
	type limitsReq struct {
		ID          string  `json:"id"`
		QPS         float64 `json:"qps"`
		Burst       int     `json:"burst"`
		MaxInflight int     `json:"maxInflight"`
	}
	type adminReq struct {
		ID    string `json:"id"`
		Admin bool   `json:"admin"`
	}

	h := make(map[string]http.Handler)
	h["/tenants"] = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.Method {
		case http.MethodGet:
			writeJSON(w, tenants.List())
		case http.MethodPost:
			var body struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
				http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
				return
			}
			key, err := tenants.Create(body.ID)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if !persistTenants(w, tenants) {
				return
			}
			// The raw key's single appearance; store it client-side.
			writeJSON(w, map[string]string{"id": body.ID, "apiKey": key})
		default:
			http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
		}
	})
	h["/tenants/grant"] = tenantMutation(tenants, func(b grantReq) error { return tenants.Grant(b.ID, b.Dataset) })
	h["/tenants/quota"] = tenantMutation(tenants, func(b quotaReq) error { return tenants.SetQuota(b.ID, b.Dataset, b.Epsilon) })
	h["/tenants/limits"] = tenantMutation(tenants, func(b limitsReq) error {
		return tenants.SetLimits(b.ID, b.QPS, b.Burst, b.MaxInflight)
	})
	h["/tenants/admin"] = tenantMutation(tenants, func(b adminReq) error { return tenants.SetAdmin(b.ID, b.Admin) })
	return h
}

// tenantMutation is one POST route: it decodes a body of type T, applies
// it, persists the registry and answers {"status": "ok"}.
func tenantMutation[T any](tenants *tenant.Registry, apply func(T) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var body T
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
			return
		}
		if err := apply(body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if persistTenants(w, tenants) {
			writeJSON(w, map[string]string{"status": "ok"})
		}
	})
}

// persistTenants saves the registry after a mutation; a failed save fails
// the request (the change is live in memory but the operator must know it
// will not survive a restart).
func persistTenants(w http.ResponseWriter, tenants *tenant.Registry) bool {
	if err := tenants.Save(); err != nil {
		log.Printf("persisting tenants: %v", err)
		http.Error(w, fmt.Sprintf("applied but not persisted: %v", err), http.StatusInternalServerError)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
