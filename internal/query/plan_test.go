package query

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"gupt/internal/aging"
	"gupt/internal/analytics"
	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// planStage serves a 2 000-row table of ages under a total ε budget, with
// an aged sample of agedFrac of the rows.
func planStage(t *testing.T, total, agedFrac float64) (*Stage, *dataset.Registered) {
	t.Helper()
	rng := mathutil.NewRNG(1)
	rows := make([]mathutil.Vec, 2000)
	for i := range rows {
		rows[i] = mathutil.Vec{mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150)}
	}
	tbl, err := dataset.FromRows([]string{"age"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	reg := dataset.NewRegistry()
	r, err := reg.Register("ds", tbl, dataset.RegisterOptions{TotalBudget: total, AgedFraction: agedFrac, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return &Stage{Registry: reg, Budget: budget.NewManager(reg)}, r
}

func accuracyQuery() *Query {
	return &Query{
		Dataset: "ds", Program: analytics.Mean{Col: 0},
		Ranges:   core.RangeSpec{Output: []dp.Range{{Lo: 0, Hi: 150}}},
		Accuracy: &aging.AccuracyGoal{Rho: 0.9, Confidence: 0.9},
	}
}

// An accuracy goal is charged exactly the ε its plan translates it to.
func TestAccuracyChargesPlannedEpsilon(t *testing.T) {
	s, r := planStage(t, 100, 0.2)
	p, err := s.Plan(accuracyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !(p.Options.Epsilon > 0) || r.Accountant.Remaining() != 100 {
		t.Fatalf("plan ε = %v, remaining %v after the preview", p.Options.Epsilon, r.Accountant.Remaining())
	}
	_, charged, err := s.Run(context.Background(), accuracyQuery())
	if err != nil {
		t.Fatal(err)
	}
	if charged != p.Options.Epsilon || math.Abs(100-r.Accountant.Remaining()-charged) > 1e-9 {
		t.Errorf("charged %v, remaining %v; the plan said ε = %v", charged, r.Accountant.Remaining(), p.Options.Epsilon)
	}
}

// An accuracy goal needs the aged sample; without one it is refused before
// the charge.
func TestAccuracyNoAgedData(t *testing.T) {
	s, r := planStage(t, 10, 0)
	if _, charged, err := s.Run(context.Background(), accuracyQuery()); !errors.Is(err, aging.ErrNoAgedData) || charged != 0 {
		t.Errorf("charged %v, err %v; want ErrNoAgedData at zero ε", charged, err)
	}
	if rem := r.Accountant.Remaining(); rem != 10 {
		t.Errorf("remaining %v, want 10", rem)
	}
}

// An accuracy goal that costs more than the budget left is refused, and
// the failed charge consumes nothing.
func TestAccuracyBudgetGate(t *testing.T) {
	s, r := planStage(t, 1e-6, 0.2)
	if _, charged, err := s.Run(context.Background(), accuracyQuery()); !errors.Is(err, dp.ErrBudgetExhausted) || charged != 0 {
		t.Errorf("charged %v, err %v; want ErrBudgetExhausted at zero ε", charged, err)
	}
	if rem := r.Accountant.Remaining(); rem != 1e-6 {
		t.Errorf("failed charge consumed budget: remaining %v", rem)
	}
}

// slowChamber holds each block for d, or until the run's context ends.
type slowChamber struct {
	d     time.Duration
	inner sandbox.Chamber
}

func (c slowChamber) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	select {
	case <-time.After(c.d):
		return c.inner.Execute(ctx, block)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// A session's members share the request's one deadline. Three one-block
// members that each take 90 ms end with the 100 ms Timeout, not one Timeout
// apiece; three that each hold a 40 ms quantum cannot all finish in it and
// are refused before the charge.
func TestSessionSharesOneDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	session := func(opts core.Options) *Session {
		m := Query{
			Program: analytics.Mean{Col: 0},
			Ranges:  core.RangeSpec{Output: []dp.Range{{Lo: 0, Hi: 150}}},
			Options: opts,
		}
		m.Options.BlockSize = 2000 // one block
		return &Session{Dataset: "ds", TotalEpsilon: 1, Members: []Query{m, m, m}}
	}

	s, r := planStage(t, 10, 0)
	s.Timeout = timeout
	slow := func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber {
		return slowChamber{d: 90 * time.Millisecond, inner: &sandbox.InProcess{Program: prog, Policy: pol}}
	}
	start := time.Now()
	out, charged, err := s.RunSession(context.Background(), session(core.Options{NewChamber: slow}))
	if elapsed := time.Since(start); elapsed > 2*timeout {
		t.Errorf("session ran %v under a %v Timeout", elapsed, timeout)
	}
	if err != nil || charged != 1 || out[0].Err != nil || out[1].Err == nil || out[2].Err == nil {
		t.Fatalf("charged %v, err %v, members %+v; want the first to answer and the rest to abort at the deadline", charged, err, out)
	}

	out, charged, err = s.RunSession(context.Background(), session(core.Options{Quantum: 40 * time.Millisecond}))
	if !errors.Is(err, ErrUnfinishable) || out != nil || charged != 0 {
		t.Errorf("quantum session: charged %v, err %v; want a refusal before the charge", charged, err)
	}
	if rem := r.Accountant.Remaining(); rem != 9 {
		t.Errorf("remaining %v, want 9: one charge for the first session, none for the refusal", rem)
	}
}

// Readiness runs before the deadline bound and lowers each plan's P to what
// the host reports: eight blocks under a 20 ms quantum fit a 100 ms Timeout
// at the planned P = 4, not at the one slot the host says it has, and are
// refused before the charge. Zero leaves P as planned; a readiness error
// refuses before the bound.
func TestReadyLowersPBeforeTheBound(t *testing.T) {
	s, r := planStage(t, 10, 0)
	s.Timeout = 100 * time.Millisecond
	q := &Query{
		Dataset: "ds", Program: analytics.Mean{Col: 0},
		Ranges:  core.RangeSpec{Output: []dp.Range{{Lo: 0, Hi: 150}}},
		Options: core.Options{Epsilon: 1, BlockSize: 250, Parallelism: 4, Quantum: 20 * time.Millisecond},
	}
	down := errors.New("no host")
	for _, c := range []struct {
		live    int
		err     error
		want    error
		charged float64
	}{
		{live: 1, want: ErrUnfinishable},
		{live: 0, charged: 1},
		{live: 8, charged: 1},
		{err: down, want: down},
	} {
		s.Ready = func(context.Context) (int, error) { return c.live, c.err }
		before := r.Accountant.Remaining()
		_, charged, err := s.Run(context.Background(), q)
		if !errors.Is(err, c.want) || (c.want == nil && err != nil) || charged != c.charged {
			t.Errorf("ready (%d, %v): charged %v, err %v; want %v charged, err %v", c.live, c.err, charged, err, c.charged, c.want)
		}
		if c.want == ErrUnfinishable && !strings.Contains(err.Error(), "P = 1") {
			t.Errorf("refusal %q does not name P = 1", err)
		}
		if rem := r.Accountant.Remaining(); rem != before-c.charged {
			t.Errorf("ready (%d, %v): remaining %v, want %v", c.live, c.err, rem, before-c.charged)
		}
	}
}
