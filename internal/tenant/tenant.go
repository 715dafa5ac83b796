// Package tenant is the principal layer of the multi-tenant front door:
// who is asking, what datasets they may touch, and how much ε they may
// spend there. It supplies
//
//   - a registry of tenants with API-key authentication (keys are hashed
//     with SHA-256 at rest and compared in constant time; the raw key is
//     shown exactly once, at creation),
//   - tenant→dataset authorization grants ("*" grants every dataset),
//   - per-tenant lifetime ε quotas layered ON TOP of the dataset-global
//     budget: a query must clear both its tenant's quota and the global
//     accountant, and a quota refusal happens before the durable global
//     charge so it costs zero ε,
//   - JSON file persistence (atomic temp+rename) so tenant definitions
//     survive restarts, and
//   - recovery seeding: the ledger replays per-tenant spent balances at
//     boot and SeedSpent reinstates them; an unknown tenant id in the WAL
//     fails recovery closed, mirroring the ledger's posture (losing track
//     of who spent ε is a privacy failure, not an inconvenience).
//
// The registry never stores or returns raw key material after creation.
package tenant

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gupt/internal/dp"
)

// ErrUnauthenticated is returned by Authenticate when no enabled tenant's
// key hash matches the presented key. The message is deliberately uniform:
// it does not distinguish unknown key from disabled tenant.
var ErrUnauthenticated = errors.New("tenant: unauthenticated: unknown or disabled API key")

// ErrQuotaExhausted wraps dp.ErrBudgetExhausted so a per-tenant quota
// refusal classifies as a budget refusal everywhere budget refusals are
// recognized (outcome strings, telemetry, CLI) while remaining
// distinguishable with errors.Is against this sentinel.
var ErrQuotaExhausted = fmt.Errorf("tenant quota: %w", dp.ErrBudgetExhausted)

// ErrUnknownTenant is returned when an operation names a tenant id that is
// not registered — including recovery seeding, where it fails boot closed.
var ErrUnknownTenant = errors.New("tenant: unknown tenant id")

// keyPrefix marks generated API keys so they are recognizable in configs
// and never mistaken for other secrets.
const keyPrefix = "gupt_"

// Tenant is the persisted definition of one principal. Only the SHA-256
// hash of the API key is stored.
type Tenant struct {
	ID       string `json:"id"`
	KeyHash  string `json:"keyHash"` // hex SHA-256 of the API key
	Admin    bool   `json:"admin,omitempty"`
	Disabled bool   `json:"disabled,omitempty"`
	// Grants lists dataset names this tenant may query; the single grant
	// "*" authorizes every dataset.
	Grants []string `json:"grants,omitempty"`
	// Quotas maps dataset name → lifetime ε ceiling for this tenant. A
	// dataset with no entry is limited only by the global budget.
	Quotas map[string]float64 `json:"quotas,omitempty"`
	// Rate-limit policy, enforced by internal/ratelimit at admission.
	RateQPS     float64 `json:"rateQPS,omitempty"`
	RateBurst   int     `json:"rateBurst,omitempty"`
	MaxInflight int     `json:"maxInflight,omitempty"`
}

// Info is the sanitized, observable view of one tenant: everything except
// key material, plus live spent balances.
type Info struct {
	ID          string             `json:"id"`
	Admin       bool               `json:"admin,omitempty"`
	Disabled    bool               `json:"disabled,omitempty"`
	Grants      []string           `json:"grants,omitempty"`
	Quotas      map[string]float64 `json:"quotas,omitempty"`
	RateQPS     float64            `json:"rateQPS,omitempty"`
	RateBurst   int                `json:"rateBurst,omitempty"`
	MaxInflight int                `json:"maxInflight,omitempty"`
	// Spent maps dataset → ε this tenant has consumed there (quota
	// accounting, seeded from ledger recovery at boot).
	Spent map[string]float64 `json:"spent,omitempty"`
}

// state is one tenant's live registry entry: the persisted definition,
// the decoded key hash for constant-time compares, and quota spend.
type state struct {
	def     Tenant
	keyHash []byte             // decoded KeyHash; nil if unparseable
	spent   map[string]float64 // dataset → ε consumed by this tenant
}

// Registry holds all tenants. Safe for concurrent use. Lock ordering:
// Registry.mu is a leaf — never call out to budget/ledger while holding it.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]*state
	path    string // persistence file; "" = in-memory only
}

// NewRegistry returns an empty in-memory registry (no persistence).
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*state)}
}

// Load reads a registry from path. A missing file yields an empty registry
// bound to that path (first Save creates it); a present-but-invalid file is
// an error — better to refuse boot than silently drop tenant definitions.
func Load(path string) (*Registry, error) {
	r := NewRegistry()
	r.path = path
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tenant: reading %s: %w", path, err)
	}
	var defs []Tenant
	if err := json.Unmarshal(data, &defs); err != nil {
		return nil, fmt.Errorf("tenant: parsing %s: %w", path, err)
	}
	for _, def := range defs {
		if err := r.Add(def); err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", path, err)
		}
	}
	return r, nil
}

// Save writes all tenant definitions to the bound path atomically
// (temp file + rename). A registry with no path is a no-op.
func (r *Registry) Save() error {
	r.mu.RLock()
	path := r.path
	defs := make([]Tenant, 0, len(r.tenants))
	for _, st := range r.tenants {
		defs = append(defs, st.def)
	}
	r.mu.RUnlock()
	if path == "" {
		return nil
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].ID < defs[j].ID })
	data, err := json.MarshalIndent(defs, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tenants-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, 0o600); err != nil { // key hashes are still secrets-adjacent
		os.Remove(tmpName)
		return err
	}
	return os.Rename(tmpName, path)
}

// validID rejects ids that would collide with ledger string limits or
// smuggle structure into logs. Same character policy as dataset names.
func validID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("tenant: id must be 1..128 bytes, got %d", len(id))
	}
	for _, c := range id {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.') {
			return fmt.Errorf("tenant: id %q contains %q; allowed: [a-zA-Z0-9._-]", id, c)
		}
	}
	return nil
}

// HashKey returns the hex SHA-256 of an API key — the at-rest form.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Create registers a new tenant and returns its freshly generated API key.
// This is the ONLY time the raw key exists outside the caller's hands; the
// registry keeps just the hash.
func (r *Registry) Create(id string) (key string, err error) {
	if err := validID(id); err != nil {
		return "", err
	}
	raw := make([]byte, 24)
	if _, err := rand.Read(raw); err != nil {
		return "", fmt.Errorf("tenant: generating key: %w", err)
	}
	key = keyPrefix + hex.EncodeToString(raw)
	err = r.Add(Tenant{ID: id, KeyHash: HashKey(key)})
	if err != nil {
		return "", err
	}
	return key, nil
}

// Add registers a fully specified tenant (tests, file load, key rotation).
// The id must be unused and the key hash must parse as hex SHA-256.
func (r *Registry) Add(def Tenant) error {
	if err := validID(def.ID); err != nil {
		return err
	}
	hash, err := hex.DecodeString(def.KeyHash)
	if err != nil || len(hash) != sha256.Size {
		return fmt.Errorf("tenant: %s: keyHash must be hex SHA-256", def.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tenants[def.ID]; dup {
		return fmt.Errorf("tenant: duplicate id %q", def.ID)
	}
	cp := def
	cp.Grants = append([]string(nil), def.Grants...)
	if def.Quotas != nil {
		cp.Quotas = make(map[string]float64, len(def.Quotas))
		for k, v := range def.Quotas {
			cp.Quotas[k] = v
		}
	}
	r.tenants[def.ID] = &state{def: cp, keyHash: hash, spent: make(map[string]float64)}
	return nil
}

// Authenticate resolves a presented API key to a tenant id. The presented
// key is hashed once and compared against every registered hash with
// crypto/subtle so the scan time is independent of which (if any) tenant
// matches; disabled tenants still burn a compare but never match.
func (r *Registry) Authenticate(key string) (string, error) {
	presented := sha256.Sum256([]byte(key))
	r.mu.RLock()
	defer r.mu.RUnlock()
	matched := ""
	for id, st := range r.tenants {
		ok := subtle.ConstantTimeCompare(presented[:], st.keyHash) == 1
		if ok && !st.def.Disabled && key != "" {
			matched = id
		}
	}
	if matched == "" {
		return "", ErrUnauthenticated
	}
	return matched, nil
}

// Get returns the sanitized view of one tenant.
func (r *Registry) Get(id string) (Info, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.tenants[id]
	if !ok {
		return Info{}, false
	}
	return st.info(), true
}

// List returns sanitized views of every tenant, sorted by id.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.tenants))
	for _, st := range r.tenants {
		out = append(out, st.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (st *state) info() Info {
	in := Info{
		ID:          st.def.ID,
		Admin:       st.def.Admin,
		Disabled:    st.def.Disabled,
		Grants:      append([]string(nil), st.def.Grants...),
		RateQPS:     st.def.RateQPS,
		RateBurst:   st.def.RateBurst,
		MaxInflight: st.def.MaxInflight,
	}
	if len(st.def.Quotas) > 0 {
		in.Quotas = make(map[string]float64, len(st.def.Quotas))
		for k, v := range st.def.Quotas {
			in.Quotas[k] = v
		}
	}
	if len(st.spent) > 0 {
		in.Spent = make(map[string]float64, len(st.spent))
		for k, v := range st.spent {
			in.Spent[k] = v
		}
	}
	return in
}

// Grant authorizes a tenant for a dataset ("*" = all datasets).
func (r *Registry) Grant(id, dataset string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	for _, g := range st.def.Grants {
		if g == dataset {
			return nil
		}
	}
	st.def.Grants = append(st.def.Grants, dataset)
	return nil
}

// SetQuota sets a tenant's lifetime ε ceiling on one dataset. A quota below
// the tenant's already-spent balance is legal (future charges refuse).
func (r *Registry) SetQuota(id, dataset string, eps float64) error {
	if eps < 0 {
		return fmt.Errorf("tenant: quota must be >= 0, got %v", eps)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	if st.def.Quotas == nil {
		st.def.Quotas = make(map[string]float64)
	}
	st.def.Quotas[dataset] = eps
	return nil
}

// SetLimits sets a tenant's rate-limit policy.
func (r *Registry) SetLimits(id string, qps float64, burst, maxInflight int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	st.def.RateQPS, st.def.RateBurst, st.def.MaxInflight = qps, burst, maxInflight
	return nil
}

// SetAdmin toggles the admin capability (dataset registration and the
// server-wide stats op).
func (r *Registry) SetAdmin(id string, admin bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	st.def.Admin = admin
	return nil
}

// Authorized reports whether the tenant may query the dataset.
func (r *Registry) Authorized(id, dataset string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.tenants[id]
	if !ok || st.def.Disabled {
		return false
	}
	for _, g := range st.def.Grants {
		if g == "*" || g == dataset {
			return true
		}
	}
	return false
}

// IsAdmin reports whether the tenant holds the admin capability.
func (r *Registry) IsAdmin(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.tenants[id]
	return ok && !st.def.Disabled && st.def.Admin
}

// quotaSlack absorbs float64 accumulation error in quota comparisons,
// mirroring the global accountant's tolerance posture.
const quotaSlack = 1e-9

// Reserve debits eps from the tenant's quota on dataset, refusing with
// ErrQuotaExhausted if it would exceed the ceiling. Datasets without a
// quota entry are tracked but unlimited. Call Release to back out a
// reservation whose downstream global charge was refused.
func (r *Registry) Reserve(id, dataset string, eps float64) error {
	if eps < 0 {
		return fmt.Errorf("tenant: negative reservation %v", eps)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	if quota, limited := st.def.Quotas[dataset]; limited {
		if st.spent[dataset]+eps > quota+quotaSlack {
			return fmt.Errorf("%w: tenant %q dataset %q: requested %v, remaining %v",
				ErrQuotaExhausted, id, dataset, eps, quota-st.spent[dataset])
		}
	}
	st.spent[dataset] += eps
	return nil
}

// Release backs out a prior Reserve (the global charge was refused, so the
// tenant did not actually spend). Clamped at zero.
func (r *Registry) Release(id, dataset string, eps float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.tenants[id]
	if !ok {
		return
	}
	st.spent[dataset] -= eps
	if st.spent[dataset] < 0 {
		st.spent[dataset] = 0
	}
}

// Spent reports the tenant's consumed ε on one dataset.
func (r *Registry) Spent(id, dataset string) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if st, ok := r.tenants[id]; ok {
		return st.spent[dataset]
	}
	return 0
}

// QuotaState reports the tenant's quota position on one dataset: ε spent,
// the quota ceiling, and whether a ceiling exists at all (limited=false
// means the tenant is bounded only by the dataset's global budget). The
// burn-down plane reads this after each charge.
func (r *Registry) QuotaState(id, dataset string) (spent, quota float64, limited bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.tenants[id]
	if !ok {
		return 0, 0, false
	}
	quota, limited = st.def.Quotas[dataset]
	return st.spent[dataset], quota, limited
}

// SpentByDataset returns every dataset the tenant has quota-tracked spend
// or a quota on, for the per-tenant /ledger slice. Datasets granted but
// never touched and without a quota do not appear.
func (r *Registry) SpentByDataset(id string) map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.tenants[id]
	if !ok {
		return nil
	}
	out := make(map[string]float64, len(st.spent)+len(st.def.Quotas))
	for ds, eps := range st.spent {
		out[ds] = eps
	}
	for ds := range st.def.Quotas {
		if _, seen := out[ds]; !seen {
			out[ds] = 0
		}
	}
	return out
}

// SeedSpent reinstates a recovered balance at boot, REPLACING the current
// value (recovery is authoritative). Unknown tenant ids are an error so
// callers can fail recovery closed: a WAL attributing spend to a tenant
// the registry no longer knows means either the registry file regressed or
// the WAL was forged — both are refuse-to-boot conditions.
func (r *Registry) SeedSpent(id, dataset string, eps float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("%w: %q (ledger attributes %v ε on %q to it; refusing to drop the balance)",
			ErrUnknownTenant, id, eps, dataset)
	}
	st.spent[dataset] = eps
	return nil
}

// SeedFromRecovery reinstates every tenant balance the ledger replayed for
// one dataset. The empty tenant id (pre-tenancy and single-tenant records)
// carries no per-tenant quota and is skipped. Any other unknown id fails
// closed.
func (r *Registry) SeedFromRecovery(dataset string, byTenant map[string]float64) error {
	for id, eps := range byTenant {
		if id == "" {
			continue
		}
		if err := r.SeedSpent(id, dataset, eps); err != nil {
			return err
		}
	}
	return nil
}
