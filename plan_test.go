package gupt

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"gupt/internal/budget"
	"gupt/internal/compman"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/mathutil"
	"gupt/internal/query"
)

// publicCase is a query whose failure depends only on public inputs: the
// query itself, the table's shape and the request's deadline.
type publicCase struct {
	name string
	q    Query
	// wire, when set, is the error the served host answers instead of
	// core.Run's: its wire decoding refuses the input first.
	wire string
}

// publicCases are each one fault away from a query that runs, over
// publicRows's 100-row, 1-column table at ε = 1.
func publicCases() []publicCase {
	base := Query{Dataset: "ds", Program: Mean{Col: 0}, OutputRanges: []Range{{Lo: 0, Hi: 50}}, Epsilon: 1, Seed: 3}
	with := func(change func(*Query)) Query {
		q := base
		change(&q)
		return q
	}
	return []publicCase{
		{name: "block size above n", q: with(func(q *Query) { q.BlockSize = 500 })},
		{name: "negative block size", q: with(func(q *Query) { q.BlockSize = -3 })},
		{name: "two ranges for one output", q: with(func(q *Query) { q.OutputRanges = []Range{{Lo: 0, Hi: 50}, {Lo: 0, Hi: 50}} })},
		{name: "inverted range", q: with(func(q *Query) { q.OutputRanges = []Range{{Lo: 50, Hi: 0}} }),
			wire: "range 0: dp: invalid range: lo 50 > hi 0"},
		{name: "percentile pair reversed", q: with(func(q *Query) { q.PercentileLow, q.PercentileHigh = 0.9, 0.1 })},
		{name: "user column past the row", q: with(func(q *Query) { q.UserLevel, q.UserColumn = true, 3 })},
		{name: "negative resampling factor", q: with(func(q *Query) { q.Gamma = -1 })},
	}
}

func publicRows() [][]float64 {
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{float64(i % 50)}
	}
	return rows
}

// The plan's deadline case: 10 blocks of a 40 ms quantum at P = 1 need at
// least 400 ms, and the request has 100 ms.
const (
	planTimeout = 100 * time.Millisecond
	planRefusal = "ℓ = 10 blocks at P = 1 under a 40ms quantum take at least 400ms"
)

func lateQuery() Query {
	return Query{Dataset: "ds", Program: Mean{Col: 0}, OutputRanges: []Range{{Lo: 0, Hi: 50}}, Epsilon: 1,
		BlockSize: 10, Quantum: 40 * time.Millisecond}
}

// publicHost runs a query on one front door and reports the ε it charged,
// the budget left after it and its error.
type publicHost func(t *testing.T, q Query) (charged, remaining float64, err error)

func stageHost(t *testing.T) publicHost {
	tbl, err := dataset.FromRows([]string{"v"}, toVecs(publicRows()))
	if err != nil {
		t.Fatal(err)
	}
	reg := dataset.NewRegistry()
	if _, err := reg.Register("ds", tbl, dataset.RegisterOptions{TotalBudget: 10}); err != nil {
		t.Fatal(err)
	}
	s := &query.Stage{Registry: reg, Budget: budget.NewManager(reg), Timeout: planTimeout}
	return func(t *testing.T, q Query) (float64, float64, error) {
		_, charged, err := s.Run(context.Background(), q.pipeline())
		rem, rerr := s.Budget.Remaining("ds")
		if rerr != nil {
			t.Fatal(rerr)
		}
		return charged, rem, err
	}
}

func platformHost(t *testing.T) publicHost {
	p := New()
	if err := p.Register("ds", publicRows(), []string{"v"}, DatasetOptions{TotalBudget: 10}); err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T, q Query) (float64, float64, error) {
		before := mustRemainingOf(t, p, "ds")
		ctx, cancel := context.WithTimeout(context.Background(), planTimeout)
		defer cancel()
		_, err := p.Run(ctx, q)
		after := mustRemainingOf(t, p, "ds")
		return before - after, after, err
	}
}

func servedPublicHost(t *testing.T) publicHost {
	tbl, err := dataset.FromRows([]string{"v"}, toVecs(publicRows()))
	if err != nil {
		t.Fatal(err)
	}
	reg := dataset.NewRegistry()
	if _, err := reg.Register("ds", tbl, dataset.RegisterOptions{TotalBudget: 10}); err != nil {
		t.Fatal(err)
	}
	srv := compman.NewServer(reg, compman.ServerConfig{QueryTimeout: planTimeout})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) // returns when Close runs
	t.Cleanup(func() { srv.Close() })
	c, err := compman.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return func(t *testing.T, q Query) (float64, float64, error) {
		_, err := c.Query(&compman.Request{
			Dataset:       q.Dataset,
			Program:       &compman.ProgramSpec{Type: "mean", Col: 0},
			OutputRanges:  wireRanges(q.OutputRanges),
			Epsilon:       q.Epsilon,
			BlockSize:     q.BlockSize,
			Gamma:         q.Gamma,
			Seed:          q.Seed,
			QuantumMillis: q.Quantum.Milliseconds(),
			UserLevel:     q.UserLevel,
			UserColumn:    q.UserColumn,
			PercentileLow: q.PercentileLow, PercentileHigh: q.PercentileHigh,
		})
		var charged float64
		var qe *compman.QueryError
		if errors.As(err, &qe) {
			charged = qe.EpsilonCharged
		}
		rem, rerr := c.RemainingBudget("ds")
		if rerr != nil {
			t.Fatal(rerr)
		}
		return charged, rem, err
	}
}

func toVecs(rows [][]float64) []mathutil.Vec {
	out := make([]mathutil.Vec, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

func mustRemainingOf(t *testing.T, p *Platform, name string) float64 {
	t.Helper()
	rem, err := p.RemainingBudget(name)
	if err != nil {
		t.Fatal(err)
	}
	return rem
}

// Nothing decided by public inputs is charged. Each public-input fault
// core.Run finds, and a plan that cannot finish before its deadline, is
// refused before the charge on all three front doors: the stage, the
// embedded Platform and a served Client. The refusal costs no ε, leaves the
// budget where it was and says what core.Run says about the same input
// (§6.2: a charged run that fails keeps its charge, so a failure the
// analyst could have predicted must not be charged).
func TestPublicInputErrorsAreFree(t *testing.T) {
	// P is GOMAXPROCS on every host here; the deadline case needs P = 1.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows := publicRows()
	hosts := []struct {
		name string
		new  func(*testing.T) publicHost
	}{{"stage", stageHost}, {"platform", platformHost}, {"served", servedPublicHost}}
	for _, h := range hosts {
		run := h.new(t)
		for _, c := range publicCases() {
			q := c.q
			_, want := core.Run(context.Background(), q.Program, toVecs(rows), q.pipeline().Ranges, q.pipeline().Options)
			if want == nil {
				t.Fatalf("%s: core.Run accepted the query", c.name)
			}
			wantText := want.Error()
			if h.name == "served" && c.wire != "" {
				wantText = c.wire
			}
			charged, rem, err := run(t, q)
			if err == nil || err.Error() != wantText {
				t.Errorf("%s/%s: err %v, want %q", h.name, c.name, err, wantText)
			}
			if charged != 0 || rem != 10 {
				t.Errorf("%s/%s: charged %v, remaining %v; want a refusal at zero ε with all 10 left", h.name, c.name, charged, rem)
			}
		}
		charged, rem, err := run(t, lateQuery())
		if err == nil || !strings.Contains(err.Error(), planRefusal) {
			t.Errorf("%s/deadline: err %v, want a refusal naming %q", h.name, err, planRefusal)
		}
		if h.name != "served" && !errors.Is(err, query.ErrUnfinishable) {
			t.Errorf("%s/deadline: err %v is not query.ErrUnfinishable", h.name, err)
		}
		if charged != 0 || rem != 10 {
			t.Errorf("%s/deadline: charged %v, remaining %v; want a refusal at zero ε with all 10 left", h.name, charged, rem)
		}
	}
}
