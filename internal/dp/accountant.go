package dp

import (
	"errors"
	"fmt"
	"sync"
)

// ErrBudgetExhausted is returned by Accountant.Spend when a charge would
// push cumulative spend past the total budget. Queries that fail with this
// error consume nothing.
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// Accountant tracks cumulative ε consumption against a fixed total budget
// under sequential composition (the composition lemma of Dwork et al. cited
// as [5] in the paper: ε_total = Σ ε_i). It is safe for concurrent use.
//
// The accountant is the platform-side defense against privacy-budget
// attacks (paper §6.2): analyst code never holds the ledger, so a malicious
// query cannot spend budget conditionally on the data it sees.
//
// Lock ordering: mu is a leaf lock. Accountant methods call into nothing
// that locks, so any caller may invoke them while holding its own locks —
// the durable ledger (internal/ledger) relies on this, calling Spend while
// holding its ledger mutex so the exhaustion check-then-refund pair is
// serialized under that lock (Registry.mu → Ledger.mu → Accountant.mu).
// Never acquire another system lock from inside this package.
type Accountant struct {
	mu      sync.Mutex
	total   float64
	spent   float64
	queries int
}

// NewAccountant returns an accountant with the given total ε budget.
// A non-positive total yields an accountant that rejects every charge.
func NewAccountant(total float64) *Accountant {
	if total < 0 {
		total = 0
	}
	return &Accountant{total: total}
}

// Total returns the lifetime budget.
func (a *Accountant) Total() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Spent returns the cumulative ε consumed so far.
func (a *Accountant) Spent() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Remaining returns the budget still available.
func (a *Accountant) Remaining() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total - a.spent
}

// Spend atomically debits eps from the budget. It returns
// ErrBudgetExhausted (wrapped with the shortfall) if the debit would exceed
// the total; in that case nothing is consumed. The accountant keeps no
// per-charge record — label is for chargers that journal it (the durable
// ledger writes it to the WAL) — so its memory does not grow with queries.
func (a *Accountant) Spend(label string, eps float64) error {
	if err := checkEpsilon(eps); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// A small relative tolerance absorbs float accumulation error when many
	// exact fractions of the budget are spent back-to-back.
	const slack = 1e-9
	if a.spent+eps > a.total*(1+slack) {
		return fmt.Errorf("%w: requested %v, remaining %v", ErrBudgetExhausted, eps, a.total-a.spent)
	}
	a.spent += eps
	a.queries++
	return nil
}

// Queries returns the number of successful charges.
func (a *Accountant) Queries() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queries
}
