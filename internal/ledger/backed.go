package ledger

import (
	"fmt"

	"gupt/internal/dp"
)

// Backed couples one dataset's in-memory dp.Accountant to the durable
// ledger with log-before-charge semantics: every SpendAs appends (and, by
// ack time, fsyncs) a charge record before the accountant debits it, so a
// crash at any instant can only over-count the dataset's spent ε.
//
// Aborted queries keep their charge (paper §6.2, PR 1): the engine charges
// through SpendAs before running analyst code, and nothing on the abort path
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

// SpendAs durably debits eps attributed to tenant ("" is the default
// principal): the charge record, tenant included, is on stable storage
// before SpendAs returns nil, and recovery replays it into the per-tenant
// balance. A dp.ErrBudgetExhausted refusal leaves the in-memory ledger
// unchanged (the provisional record is cancelled by a refund carrying the
// same attribution). It implements dataset.Charger.
func (b *Backed) SpendAs(tenant, label string, eps float64) error {
	return b.led.charge(b.name, label, tenant, eps, b.acct)
}

// RecordCacheHitAs journals an ε=0 re-release of a previously published
// answer (a noisy-answer cache hit) attributed to tenant, without touching
// the accountant, so the WAL shows whose cached answer was re-released.
// The record is replay-neutral: recovery counts it but moves no budget.
func (b *Backed) RecordCacheHitAs(tenant, label string) error {
	return b.led.cacheHit(b.name, label, tenant)
}
