package query

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/qcache"
)

func TestLinearFunc(t *testing.T) {
	l := &Linear{
		InputDim: []int{0, 0},
		Scale:    []float64{1, 2},
		Offset:   []float64{0, -5},
	}
	fn, err := l.Func(2)
	if err != nil {
		t.Fatal(err)
	}
	out := fn([]dp.Range{{Lo: 10, Hi: 20}})
	if out[0].Lo != 10 || out[0].Hi != 20 {
		t.Errorf("identity translation = %+v", out[0])
	}
	if out[1].Lo != 15 || out[1].Hi != 35 {
		t.Errorf("scaled translation = %+v", out[1])
	}
	// Out-of-range input dim falls back to dim 0 rather than panicking.
	l2 := &Linear{InputDim: []int{7}, Scale: []float64{1}, Offset: []float64{0}}
	fn2, err := l2.Func(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fn2([]dp.Range{{Lo: 1, Hi: 2}}); got[0].Lo != 1 {
		t.Errorf("fallback translation = %+v", got[0])
	}
	// Arity mismatch rejected.
	if _, err := l.Func(3); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// brokenJournal charges through to the accountant but cannot journal a
// cache hit, like a ledger whose disk went away between two requests.
type brokenJournal struct{ acct *dp.Accountant }

func (b brokenJournal) Spend(label string, eps float64) error { return b.acct.Spend(label, eps) }
func (b brokenJournal) RecordCacheHit(string) error           { return errors.New("wal: disk gone") }

// A cache_hit record that cannot be journaled fails the request, for
// queries and sessions alike: a re-release the books cannot show is not
// served.
func TestCacheHitJournalFailureFailsRequest(t *testing.T) {
	tbl := dataset.New([]string{"v"})
	for i := 0; i < 500; i++ {
		if err := tbl.Append(mathutil.Vec{float64(i % 50)}); err != nil {
			t.Fatal(err)
		}
	}
	reg := dataset.NewRegistry()
	r, err := reg.Register("ds", tbl, dataset.RegisterOptions{TotalBudget: 10})
	if err != nil {
		t.Fatal(err)
	}
	r.BindCharger(brokenJournal{r.Accountant})
	s := &Stage{Registry: reg, Budget: budget.NewManager(reg), Cache: qcache.New(qcache.Config{MaxEntries: 4})}
	q := &Query{
		Dataset: "ds", Program: analytics.Mean{},
		Ranges:  core.RangeSpec{Output: []dp.Range{{Lo: 0, Hi: 50}}},
		Options: core.Options{Epsilon: 1},
	}
	sess := &Session{Dataset: "ds", TotalEpsilon: 1, Members: []Query{*q}}
	ctx := context.Background()

	if _, charged, err := s.Run(ctx, q); err != nil || charged != 1 {
		t.Fatalf("cold query: charged %v, err %v", charged, err)
	}
	if _, charged, err := s.RunSession(ctx, sess); err != nil || charged != 1 {
		t.Fatalf("cold session: charged %v, err %v", charged, err)
	}
	if res, charged, err := s.Run(ctx, q); err == nil || res != nil || charged != 0 {
		t.Errorf("query hit with a broken journal: res %v, charged %v, err %v", res, charged, err)
	}
	if res, charged, err := s.RunSession(ctx, sess); err == nil || res != nil || charged != 0 {
		t.Errorf("session hit with a broken journal: res %v, charged %v, err %v", res, charged, err)
	}
	if rem := r.Accountant.Remaining(); rem != 8 {
		t.Errorf("remaining = %v, want 8 (two cold charges, nothing for the refused hits)", rem)
	}
}

// noQuota refuses every tenant-attributed reservation.
type noQuota struct{}

func (noQuota) Reserve(string, string, float64) error { return errors.New("tenant quota exhausted") }
func (noQuota) Release(string, string, float64)       {}

// refusalStage serves an n-row table through a stage whose tenant quota
// layer refuses every charge, and returns a query that layer refuses
// (tenant "t") and one the dataset's own budget refuses (ε over the total).
func refusalStage(tb testing.TB, n int) (s *Stage, quota, overBudget *Query) {
	tb.Helper()
	rows := make([]mathutil.Vec, n)
	for i := range rows {
		rows[i] = mathutil.Vec{float64(i % 50)}
	}
	tbl, err := dataset.FromRows([]string{"v"}, rows)
	if err != nil {
		tb.Fatal(err)
	}
	reg := dataset.NewRegistry()
	if _, err := reg.Register("ds", tbl, dataset.RegisterOptions{TotalBudget: 10}); err != nil {
		tb.Fatal(err)
	}
	mgr := budget.NewManager(reg)
	mgr.SetQuotas(noQuota{})
	q := Query{
		Dataset: "ds", Program: analytics.Mean{},
		Ranges:  core.RangeSpec{Output: []dp.Range{{Lo: 0, Hi: 50}}},
		Options: core.Options{Epsilon: 1},
	}
	quotaQ, overQ := q, q
	quotaQ.Tenant = "t"
	overQ.Options.Epsilon = 11
	return &Stage{Registry: reg, Budget: mgr}, &quotaQ, &overQ
}

// bytesPerRun is the mean heap bytes one call of f allocates.
func bytesPerRun(f func()) uint64 {
	const runs = 20
	f() // warm up lazily initialised state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// Nothing before the charge touches row data: a refusal costs the same
// bytes on a 1 000-row table as on a 100 000-row one.
func TestRefusalCostIndependentOfTableSize(t *testing.T) {
	ctx := context.Background()
	var cost [2][2]uint64 // [table][quota, over-budget]
	for i, n := range []int{1000, 100000} {
		s, quota, over := refusalStage(t, n)
		for j, q := range []*Query{quota, over} {
			cost[i][j] = bytesPerRun(func() {
				if res, charged, err := s.Run(ctx, q); err == nil || res != nil || charged != 0 {
					t.Fatalf("query ran: res %v, charged %v, err %v", res, charged, err)
				}
			})
		}
	}
	for j, kind := range []string{"quota-refused", "over-budget"} {
		small, large := cost[0][j], cost[1][j]
		if large > small+1024 {
			t.Errorf("%s query allocates %d B on 1000 rows but %d B on 100000 rows", kind, small, large)
		}
	}
}

func BenchmarkStageRunRefused(b *testing.B) {
	s, quota, _ := refusalStage(b, 20000)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Run(ctx, quota); err == nil {
			b.Fatal("refused query ran")
		}
	}
}
