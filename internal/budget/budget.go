// Package budget implements GUPT's privacy budget management (paper §5):
// automatic distribution of a total budget across queries in proportion to
// their noise scales (§5.2, Example 4), and a manager that charges each
// dataset's platform-owned accountant — the defense against privacy-budget
// attacks (§6.2), since analyst code never holds the ledger.
package budget

import (
	"errors"
	"fmt"
	"math"

	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/telemetry"
)

// Distribute splits a total privacy budget across m queries in proportion
// to their noise scales ζ_i: ε_i = ζ_i/Σζ · ε (paper §5.2). With this
// allocation every query's Laplace noise has the same standard deviation,
// instead of queries with wide output ranges drowning in noise (the
// average-vs-variance example: ζ ratio 1:max equalizes their errors).
//
// ζ_i is the numerator of query i's Laplace scale — for a
// sample-and-aggregate query, outputRange_i · β_i / n_i.
func Distribute(total float64, zetas []float64) ([]float64, error) {
	if !(total > 0) || math.IsInf(total, 0) || math.IsNaN(total) {
		return nil, fmt.Errorf("%w: total %v", dp.ErrInvalidEpsilon, total)
	}
	if len(zetas) == 0 {
		return nil, errors.New("budget: no queries to distribute across")
	}
	var sum float64
	for i, z := range zetas {
		if !(z > 0) || math.IsInf(z, 0) || math.IsNaN(z) {
			return nil, fmt.Errorf("budget: noise scale %d must be positive and finite, got %v", i, z)
		}
		sum += z
	}
	out := make([]float64, len(zetas))
	for i, z := range zetas {
		out[i] = total * z / sum
	}
	return out, nil
}

// Zeta computes the noise-scale weight of a sample-and-aggregate query:
// the width of its output range times β/n. For multi-dimensional outputs
// the per-dimension widths are summed, reflecting that the per-dimension
// budget is ε/p.
func Zeta(ranges []dp.Range, blockSize, n int) (float64, error) {
	if blockSize < 1 || n < blockSize {
		return 0, fmt.Errorf("budget: invalid blockSize=%d n=%d", blockSize, n)
	}
	if len(ranges) == 0 {
		return 0, errors.New("budget: no output ranges")
	}
	var w float64
	for i, r := range ranges {
		if err := r.Validate(); err != nil {
			return 0, fmt.Errorf("budget: range %d: %w", i, err)
		}
		w += r.Width()
	}
	z := w * float64(blockSize) / float64(n)
	if z <= 0 {
		return 0, fmt.Errorf("budget: degenerate ranges give zero noise scale")
	}
	return z, nil
}

// QuotaKeeper is the per-tenant ε quota layer (implemented by
// tenant.Registry). Reserve debits a tenant's quota on a dataset, refusing
// when the ceiling would be exceeded; Release backs out a reservation whose
// downstream global charge was refused; QuotaState reports the tenant's
// authoritative post-charge position, which the ε burn-down plane reads so
// tenant rows track the real balance instead of re-deriving it from charge
// deltas. The quota sits ON TOP of the dataset-global budget: both must
// admit a charge.
type QuotaKeeper interface {
	Reserve(tenant, dataset string, eps float64) error
	Release(tenant, dataset string, eps float64)
	QuotaState(tenant, dataset string) (spent, quota float64, limited bool)
}

// Manager charges privacy spends to datasets in a registry. All spends
// flow through here; analyst-side code never sees an accountant.
type Manager struct {
	reg    *dataset.Registry
	tel    *telemetry.Registry
	quotas QuotaKeeper
	plane  *telemetry.BudgetPlane
}

// NewManager returns a manager over the given registry.
func NewManager(reg *dataset.Registry) *Manager {
	return &Manager{reg: reg}
}

// Instrument routes charge/refusal counters into a telemetry registry
// (budget.charges[.<dataset>] and budget.refusals[.<dataset>]). Call before
// serving; the counters carry event counts and labels only, never ε values.
func (m *Manager) Instrument(tel *telemetry.Registry) {
	m.tel = tel
}

// SetQuotas layers per-tenant ε quotas onto every tenant-attributed charge
// (PR 8). Call before serving; nil disables the layer. Charges with an
// empty tenant id (embedded platform, single-tenant mode) bypass quotas.
func (m *Manager) SetQuotas(q QuotaKeeper) {
	m.quotas = q
}

// SetBurnDown routes every successful charge into the ε burn-down plane
// (PR 10). Call before serving; nil disables the plane.
func (m *Manager) SetBurnDown(p *telemetry.BudgetPlane) {
	m.plane = p
}

// burn feeds the plane after a successful charge against r: the dataset's
// global row always, plus the tenant's row when the charge was
// tenant-attributed. State is read back from the accountant and the quota
// keeper, so refunds and concurrent charges can never drift the plane.
func (m *Manager) burn(tenant, datasetName string, eps float64, r *dataset.Registered) {
	if m.plane == nil {
		return
	}
	m.plane.Observe("", datasetName, eps, r.Accountant.Spent(), r.Accountant.Total())
	if tenant == "" {
		return
	}
	spent, quota, limited := 0.0, 0.0, false
	if m.quotas != nil {
		spent, quota, limited = m.quotas.QuotaState(tenant, datasetName)
	}
	if !limited {
		quota = 0 // unlimited row: the plane tracks spend without a ceiling
	}
	m.plane.Observe(tenant, datasetName, eps, spent, quota)
}

// Charge debits eps from the named dataset's budget, labeled for audit.
// It fails atomically: either the full charge is recorded or nothing is.
func (m *Manager) Charge(datasetName, label string, eps float64) error {
	return m.ChargeAs("", datasetName, label, eps)
}

// ChargeAs is Charge attributed to a tenant id ("" is the default
// principal and skips quotas). With CacheHitAs it is the one road to a
// dataset's charger (Registered.SpendAs). Admission order: the
// tenant's quota reservation first (a refusal here is free — nothing
// durable happened), then the dataset-global durable charge; a global
// refusal releases the reservation. A crash between the two can only lose
// the release, leaving the tenant's quota over-counted — the safe
// direction, and the quota balance is rebuilt from the ledger at next boot
// anyway.
func (m *Manager) ChargeAs(tenant, datasetName, label string, eps float64) error {
	r, err := m.reg.Lookup(datasetName)
	if err != nil {
		return err
	}
	if tenant != "" && m.quotas != nil {
		if err := m.quotas.Reserve(tenant, datasetName, eps); err != nil {
			m.tel.Counter("budget.tenant_quota_refusals").Inc()
			return m.record(datasetName, err)
		}
	}
	err = m.record(datasetName, r.SpendAs(tenant, label, eps))
	if err != nil && tenant != "" && m.quotas != nil {
		m.quotas.Release(tenant, datasetName, eps)
	}
	if err == nil {
		m.burn(tenant, datasetName, eps, r)
	}
	return err
}

// record tallies a settled or refused charge. Only budget refusals count as
// refusals; validation errors (bad ε) are neither.
func (m *Manager) record(datasetName string, err error) error {
	switch {
	case err == nil:
		m.tel.Counter("budget.charges").Inc()
		m.tel.Counter("budget.charges." + datasetName).Inc()
	case errors.Is(err, dp.ErrBudgetExhausted):
		m.tel.Counter("budget.refusals").Inc()
		m.tel.Counter("budget.refusals." + datasetName).Inc()
	}
	return err
}

// CacheHitAs journals an ε=0 re-release of a previously published answer
// for the named dataset, attributed to a tenant id. No budget or quota
// moves — a cache hit is post-processing of an answer already paid for —
// but when a durable ledger backs the dataset, a cache_hit record lands in
// the WAL so the books distinguish re-releases from fresh spends. The
// counters (budget.cache_hits[.<dataset>]) carry event counts only.
func (m *Manager) CacheHitAs(tenant, datasetName, label string) error {
	r, err := m.reg.Lookup(datasetName)
	if err != nil {
		return err
	}
	if err := r.RecordCacheHitAs(tenant, label); err != nil {
		return err
	}
	m.tel.Counter("budget.cache_hits").Inc()
	m.tel.Counter("budget.cache_hits." + datasetName).Inc()
	return nil
}

// Remaining reports the named dataset's unspent budget.
func (m *Manager) Remaining(datasetName string) (float64, error) {
	r, err := m.reg.Lookup(datasetName)
	if err != nil {
		return 0, err
	}
	return r.Accountant.Remaining(), nil
}
