package dataset

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// contentClock issues content versions. It is process-global and strictly
// monotonic, so a dataset re-registered under a previously used name can
// never repeat a version: any cache keyed on (name, version) structurally
// cannot confuse the two incarnations.
var contentClock atomic.Uint64

// nextContentVersion draws a fresh, never-before-issued content version.
func nextContentVersion() uint64 { return contentClock.Add(1) }

// Registry errors.
var (
	ErrNotFound  = errors.New("dataset: not found")
	ErrDuplicate = errors.New("dataset: already registered")
)

// Spender is a privacy-charge sink: Spend debits eps against a dataset's
// budget, returning dp.ErrBudgetExhausted when it cannot. The durable
// ledger (internal/ledger) implements it to interpose log-before-charge
// persistence in front of the in-memory accountant.
type Spender interface {
	Spend(label string, eps float64) error
}

// Registered is a dataset under the registry's management: the private
// records, the owner-declared total privacy budget (enforced by the
// embedded accountant), optional attribute ranges, and the aged sample used
// by the aging-of-sensitivity optimizers.
type Registered struct {
	Name string
	// Private holds the records whose privacy the platform protects.
	Private *Table
	// Aged holds records that have aged out of privacy protection
	// (paper §3.3). May be empty when the owner supplies no aged data; the
	// aging-based optimizers then fall back to defaults.
	Aged *Table
	// Accountant enforces the dataset's lifetime ε budget. Read budget
	// state (Remaining, Spent, Queries) here; route debits through Spend
	// so a durable charger, when bound, sees every charge.
	Accountant *dp.Accountant

	// charger, when bound, replaces the bare accountant on the charge
	// path. Written only before the dataset is reachable (at registration,
	// via the registry hook, or at boot before serving) — see BindCharger.
	charger Spender

	// version is the dataset's content version: assigned from the global
	// clock at registration and bumped on every mutation of the dataset's
	// tables. Released-answer caches fold it into their keys, so an answer
	// computed before a mutation can never be served to a query admitted
	// after it.
	version atomic.Uint64
}

// ContentVersion reads the dataset's current content version. Safe for
// concurrent use with BumpContentVersion.
func (r *Registered) ContentVersion() uint64 { return r.version.Load() }

// BumpContentVersion advances the dataset's content version to a fresh
// value from the global clock and returns it. Every code path that mutates
// the dataset's tables (replacing the aged sample, re-loading rows) must
// call this before the mutated state can influence a released answer.
func (r *Registered) BumpContentVersion() uint64 {
	v := nextContentVersion()
	r.version.Store(v)
	return v
}

// CacheHitRecorder is the optional interface a charger implements to
// journal ε=0 cache re-releases. The durable ledger's Backed accountant
// implements it so the WAL distinguishes a cache hit from a fresh spend.
type CacheHitRecorder interface {
	RecordCacheHit(label string) error
}

// TenantSpender is the optional interface a charger implements to attribute
// charges to a principal (PR 8). The durable ledger's Backed accountant
// implements it so the WAL's tenant column survives crash recovery.
// Chargers without it serve multi-tenant traffic fine — attribution just
// degrades to the default principal.
type TenantSpender interface {
	SpendAs(tenant, label string, eps float64) error
}

// TenantCacheHitRecorder is CacheHitRecorder with tenant attribution.
type TenantCacheHitRecorder interface {
	RecordCacheHitAs(tenant, label string) error
}

// RecordCacheHit journals an ε=0 cache re-release against the dataset's
// charger, when one is bound and supports it. It never touches the
// accountant: a cache hit moves no budget by construction.
func (r *Registered) RecordCacheHit(label string) error {
	if rec, ok := r.charger.(CacheHitRecorder); ok {
		return rec.RecordCacheHit(label)
	}
	return nil
}

// RecordCacheHitAs is RecordCacheHit attributed to a tenant id. Falls back
// through the tenant-blind recorder when the charger predates tenancy, and
// to a no-op when no charger is bound.
func (r *Registered) RecordCacheHitAs(tenant, label string) error {
	if tenant != "" {
		if rec, ok := r.charger.(TenantCacheHitRecorder); ok {
			return rec.RecordCacheHitAs(tenant, label)
		}
	}
	return r.RecordCacheHit(label)
}

// BindCharger routes the dataset's future charges through s (typically a
// ledger.Backed). It must be called before the dataset serves charges —
// at boot, or from the registry's registration hook, which runs before
// Register publishes the dataset — because the binding itself is not
// synchronized with concurrent Spend calls.
func (r *Registered) BindCharger(s Spender) { r.charger = s }

// Spend debits eps from the dataset's budget under label. All platform
// charge paths go through here: with a durable charger bound the debit is
// crash-safe (log-before-charge), otherwise it hits the in-memory
// accountant directly.
func (r *Registered) Spend(label string, eps float64) error {
	if r.charger != nil {
		return r.charger.Spend(label, eps)
	}
	return r.Accountant.Spend(label, eps)
}

// SpendAs debits eps attributed to a tenant id (PR 8). With a
// tenant-aware charger bound (the durable ledger) the attribution reaches
// the WAL; otherwise it degrades to an unattributed Spend so embedded and
// legacy deployments keep working. The empty tenant is exactly Spend.
func (r *Registered) SpendAs(tenant, label string, eps float64) error {
	if tenant != "" {
		if ts, ok := r.charger.(TenantSpender); ok {
			return ts.SpendAs(tenant, label, eps)
		}
	}
	return r.Spend(label, eps)
}

// HasAged reports whether an aged sample is available.
func (r *Registered) HasAged() bool { return r.Aged != nil && r.Aged.NumRows() > 0 }

// Registry is GUPT's dataset manager (paper Fig. 2): it registers dataset
// instances and owns their remaining privacy budgets. It is safe for
// concurrent use. Analyst-side code only ever receives dataset names, never
// the tables themselves; the computation manager resolves names through the
// registry on the trusted side.
type Registry struct {
	mu   sync.RWMutex
	sets map[string]*Registered
	hook RegisterHook
}

// RegisterHook runs inside Register, after validation but before the
// dataset becomes visible to Lookup. Returning an error fails the
// registration. The durable ledger installs one to bind every new
// dataset's charges to stable storage (fail closed: a dataset that cannot
// be made durable is not served).
type RegisterHook func(*Registered) error

// SetRegisterHook installs h for all future registrations (nil clears).
func (reg *Registry) SetRegisterHook(h RegisterHook) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.hook = h
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sets: make(map[string]*Registered)}
}

// RegisterOptions configures dataset registration.
type RegisterOptions struct {
	// TotalBudget is the dataset's lifetime ε budget (required, > 0).
	TotalBudget float64
	// Ranges optionally declares public per-attribute input bounds.
	Ranges []dp.Range
	// AgedFraction, if positive, deterministically carves that fraction of
	// the records (selected with Seed) into the aged, non-private sample.
	// Mutually exclusive with Aged.
	AgedFraction float64
	// Aged optionally supplies an explicit aged table drawn from the same
	// distribution (for example, a historical snapshot).
	Aged *Table
	// Seed drives the aged-fraction split; registration is deterministic in
	// (table, options).
	Seed int64
}

// Register adds a dataset under the given name. The table is used as-is
// (the registry takes ownership); callers must not retain and mutate it.
func (reg *Registry) Register(name string, t *Table, opts RegisterOptions) (*Registered, error) {
	if name == "" {
		return nil, fmt.Errorf("dataset: empty name")
	}
	if t == nil || t.NumRows() == 0 {
		return nil, fmt.Errorf("dataset: registering %q with no rows", name)
	}
	if !(opts.TotalBudget > 0) {
		return nil, fmt.Errorf("dataset: %q needs a positive total privacy budget, got %v", name, opts.TotalBudget)
	}
	if opts.Ranges != nil {
		if err := t.SetRanges(opts.Ranges); err != nil {
			return nil, err
		}
	}
	if opts.Aged != nil && opts.AgedFraction > 0 {
		return nil, fmt.Errorf("dataset: %q sets both Aged and AgedFraction", name)
	}
	if opts.Aged != nil && opts.Aged.NumRows() > 0 && opts.Aged.Dims() != t.Dims() {
		return nil, fmt.Errorf("dataset: %q aged sample has %d dims, dataset has %d",
			name, opts.Aged.Dims(), t.Dims())
	}

	private, aged := t, opts.Aged
	if opts.AgedFraction > 0 {
		if opts.AgedFraction >= 1 {
			return nil, fmt.Errorf("dataset: %q aged fraction %v must be in (0,1)", name, opts.AgedFraction)
		}
		aged, private = t.Split(mathutil.NewRNG(opts.Seed), opts.AgedFraction)
		if private.NumRows() == 0 {
			return nil, fmt.Errorf("dataset: %q aged fraction %v leaves no private rows", name, opts.AgedFraction)
		}
	}

	r := &Registered{
		Name:       name,
		Private:    private,
		Aged:       aged,
		Accountant: dp.NewAccountant(opts.TotalBudget),
	}
	r.version.Store(nextContentVersion())

	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, ok := reg.sets[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if reg.hook != nil {
		// Runs before the dataset is visible to Lookup, so a bound charger
		// is in place before any concurrent Spend can reach it. Lock
		// ordering: Registry.mu → (hook) Ledger.mu → Accountant.mu.
		if err := reg.hook(r); err != nil {
			return nil, err
		}
	}
	reg.sets[name] = r
	return r, nil
}

// Lookup returns the registered dataset with the given name.
func (reg *Registry) Lookup(name string) (*Registered, error) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	r, ok := reg.sets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return r, nil
}

// Unregister removes a dataset; subsequent lookups fail. Removing an
// unknown name is an error so that operator typos surface.
func (reg *Registry) Unregister(name string) error {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, ok := reg.sets[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(reg.sets, name)
	return nil
}

// Names returns the sorted names of all registered datasets.
func (reg *Registry) Names() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	names := make([]string, 0, len(reg.sets))
	for n := range reg.sets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
