package ledger

import (
	"fmt"

	"gupt/internal/dp"
)

// Backed couples one dataset's in-memory dp.Accountant to the durable
// ledger with log-before-charge semantics: every Spend appends (and, by
// ack time, fsyncs) a charge record before the accountant debits it, so a
// crash at any instant can only over-count the dataset's spent ε.
//
// Aborted queries keep their charge (paper §6.2, PR 1): the engine charges
// through Spend before running analyst code, and nothing on the abort path
// refunds — so the charge-on-abort is already durable the moment it was
// acknowledged. The only refunds the ledger ever writes cancel charges the
// in-memory accountant itself refused (budget exhausted), which never
// released an answer.
type Backed struct {
	led  *Ledger
	name string
	acct *dp.Accountant
}

// Bind attaches a dataset's accountant to the ledger. It registers the
// dataset (appending a register record when new or when the lifetime total
// changed) and replays any recovered spent ε into the accountant, which
// should be fresh: whatever it had already spent is kept on top of the
// replay, an over-count.
// When the recovered spend exceeds the accountant's budget — refund
// records lost to a crash, or an owner who lowered the total — the
// accountant is clamped to exhausted rather than failing the boot: the
// dataset serves no further queries, but the platform still comes up.
func (l *Ledger) Bind(name string, acct *dp.Accountant) (*Backed, error) {
	if acct == nil {
		return nil, fmt.Errorf("ledger: binding %q with nil accountant", name)
	}
	st, err := l.register(name, acct.Total())
	if err != nil {
		return nil, err
	}

	// Replay recovered spend into the accountant. st is only mutated under
	// l.mu; take a consistent read of it there.
	l.mu.Lock()
	recovered := st.spent
	l.mu.Unlock()
	if recovered > 0 {
		if remaining := acct.Remaining(); recovered > remaining {
			recovered = remaining // clamp to exhausted, never error at boot
		}
		if recovered > 0 {
			if err := acct.Spend("ledger-recovered", recovered); err != nil {
				return nil, fmt.Errorf("ledger: replaying %q spend: %w", name, err)
			}
		}
	}
	return &Backed{led: l, name: name, acct: acct}, nil
}

// Spend durably debits eps: the charge record is on stable storage before
// Spend returns nil. A dp.ErrBudgetExhausted refusal leaves the in-memory
// ledger unchanged (the provisional record is cancelled by a refund).
// The charge is attributed to the default principal (empty tenant).
func (b *Backed) Spend(label string, eps float64) error {
	return b.led.charge(b.name, label, "", eps, b.acct)
}

// SpendAs is Spend with the charge attributed to a tenant id (PR 8): the
// WAL record carries the tenant, recovery replays it into the per-tenant
// balance, and a refusal's refund cancels that same attribution. It
// implements dataset.TenantSpender. An empty tenant is identical to Spend.
func (b *Backed) SpendAs(tenant, label string, eps float64) error {
	return b.led.charge(b.name, label, tenant, eps, b.acct)
}

// RecordCacheHit journals an ε=0 re-release of a previously published
// answer (a noisy-answer cache hit) without touching the accountant. It
// implements dataset.CacheHitRecorder so the platform's cache path reaches
// the WAL through the same charger binding as fresh spends; the record is
// replay-neutral — recovery counts it but moves no budget.
func (b *Backed) RecordCacheHit(label string) error {
	return b.led.cacheHit(b.name, label, "")
}

// RecordCacheHitAs is RecordCacheHit with tenant attribution, so the audit
// trail shows WHOSE cached answer was re-released. Still budget-neutral.
func (b *Backed) RecordCacheHitAs(tenant, label string) error {
	return b.led.cacheHit(b.name, label, tenant)
}

// Accountant exposes the wrapped in-memory accountant (read paths:
// Remaining, Spent, Queries).
func (b *Backed) Accountant() *dp.Accountant { return b.acct }

// Ledger returns the ledger this binding writes to.
func (b *Backed) Ledger() *Ledger { return b.led }
