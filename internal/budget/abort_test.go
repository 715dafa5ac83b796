package budget

import (
	"errors"
	"math"
	"testing"

	"gupt/internal/dp"
)

// The §6.2 privacy-budget-attack defense rests on an ordering contract:
// every query's ε is charged before its execution starts, and no execution
// outcome — success, degraded release, abort — ever writes to the ledger. These
// table-driven tests pin that contract at the ledger level by replaying
// charge/execute sequences in which executions fail in various ways, and
// checking the ledger ends exactly where the charges alone put it.

// outcome models how a charged query's execution ended. The manager has no
// refund API by design, so the only legal ledger effect of any outcome is
// "none" — the tables below exist to prove the accounting stays correct
// when failures and refusals interleave with successes.
type outcome int

const (
	execOK      outcome = iota
	execAborted         // engine failed after the charge settled
)

func TestBudgetChargedOnAbortSequences(t *testing.T) {
	type step struct {
		eps      float64
		out      outcome
		wantFail bool // the charge itself must be refused (overdraw)
	}
	cases := []struct {
		name    string
		total   float64
		steps   []step
		wantRem float64
	}{
		{
			name:  "abort consumes like success",
			total: 1.0,
			steps: []step{
				{eps: 0.3, out: execOK},
				{eps: 0.3, out: execAborted},
				{eps: 0.3, out: execOK},
			},
			wantRem: 0.1,
		},
		{
			name:  "all aborts drain the budget",
			total: 1.0,
			steps: []step{
				{eps: 0.5, out: execAborted},
				{eps: 0.5, out: execAborted},
				{eps: 0.1, out: execOK, wantFail: true},
			},
			wantRem: 0,
		},
		{
			name:  "each run charges once",
			total: 1.0,
			steps: []step{
				{eps: 0.6, out: execOK},
				{eps: 0.4, out: execOK},
			},
			wantRem: 0,
		},
		{
			name:  "refused charge consumes nothing",
			total: 0.5,
			steps: []step{
				{eps: 0.4, out: execAborted},
				{eps: 0.4, out: execOK, wantFail: true},
				{eps: 0.1, out: execOK},
			},
			wantRem: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, name := managerFixture(t, tc.total, 0)
			charged := 0.0
			for i, s := range tc.steps {
				err := m.Charge(name, "q", s.eps)
				if s.wantFail {
					if !errors.Is(err, dp.ErrBudgetExhausted) {
						t.Fatalf("step %d: err = %v, want ErrBudgetExhausted", i, err)
					}
					continue // no execution: the query was refused pre-charge
				}
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				charged += s.eps
				// The execution happens here and ends in s.out. Whatever it
				// is, there is no ledger operation to perform: the charge
				// already settled, and aborts (§6.2) change nothing.
				_ = s.out
				rem, err := m.Remaining(name)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if math.Abs(rem-(tc.total-charged)) > 1e-9 {
					t.Fatalf("step %d (%v): remaining %v, want %v", i, s.out, rem, tc.total-charged)
				}
			}
			rem, err := m.Remaining(name)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(rem-tc.wantRem) > 1e-9 {
				t.Errorf("final remaining %v, want %v", rem, tc.wantRem)
			}
		})
	}
}

// A failed charge must be atomic even at the exact budget boundary: a
// spend of precisely the remainder succeeds, one ulp more is refused whole.
func TestChargeBoundaryAtomicity(t *testing.T) {
	m, name := managerFixture(t, 1.0, 0)
	if err := m.Charge(name, "q1", 0.75); err != nil {
		t.Fatal(err)
	}
	if err := m.Charge(name, "too-big", 0.25000001); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("overdraw err = %v", err)
	}
	rem, err := m.Remaining(name)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-0.25) > 1e-9 {
		t.Errorf("refused charge moved the ledger: remaining %v, want 0.25", rem)
	}
	if err := m.Charge(name, "exact", rem); err != nil {
		t.Errorf("exact-remainder charge refused: %v", err)
	}
}
