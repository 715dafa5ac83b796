package query

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"gupt/internal/allocguard"
	"gupt/internal/analytics"
	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/qcache"
	"gupt/internal/sandbox"
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

func (b brokenJournal) SpendAs(_, label string, eps float64) error { return b.acct.Spend(label, eps) }
func (b brokenJournal) RecordCacheHitAs(string, string) error      { return errors.New("wal: disk gone") }

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

func (noQuota) Reserve(string, string, float64) error              { return errors.New("tenant quota exhausted") }
func (noQuota) Release(string, string, float64)                    {}
func (noQuota) QuotaState(string, string) (float64, float64, bool) { return 0, 0, true }

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

// Nothing before the charge touches row data: a refusal costs the same
// bytes on a 1 000-row table as on a 100 000-row one.
func TestRefusalCostIndependentOfTableSize(t *testing.T) {
	ctx := context.Background()
	var cost [2][2]uint64 // [table][quota, over-budget]
	for i, n := range []int{1000, 100000} {
		s, quota, over := refusalStage(t, n)
		for j, q := range []*Query{quota, over} {
			cost[i][j] = allocguard.Bytes(func() {
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

// Helper ranges under user-level privacy are refused before the charge, at
// zero ε: the helper's percentile estimate ranks single rows, so a user
// with k rows would spend k times the ε it was charged.
func TestUserLevelHelperRefusedBeforeCharge(t *testing.T) {
	rows := make([]mathutil.Vec, 400)
	for i := range rows {
		rows[i] = mathutil.Vec{float64(i % 40), float64(i % 50)}
	}
	tbl, err := dataset.FromRows([]string{"user", "v"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	reg := dataset.NewRegistry()
	r, err := reg.Register("ds", tbl, dataset.RegisterOptions{TotalBudget: 10, Ranges: []dp.Range{{Lo: 0, Hi: 40}, {Lo: 0, Hi: 50}}})
	if err != nil {
		t.Fatal(err)
	}
	s := &Stage{Registry: reg, Budget: budget.NewManager(reg), Cache: qcache.New(qcache.Config{MaxEntries: 4})}
	q := &Query{
		Dataset: "ds", Program: analytics.Mean{Col: 1},
		Ranges:  core.RangeSpec{Mode: core.ModeHelper},
		Linear:  &Linear{InputDim: []int{1}, Scale: []float64{1}, Offset: []float64{0}},
		Options: core.Options{Epsilon: 1, BlockSize: 20, UserLevel: true, UserColumn: 0},
	}
	res, charged, err := s.Run(context.Background(), q)
	if !errors.Is(err, core.ErrUserLevelHelper) || res != nil || charged != 0 {
		t.Errorf("helper ranges at user level: res %v, charged %v, err %v; want a refusal", res, charged, err)
	}
	if rem := r.Accountant.Remaining(); rem != 10 {
		t.Errorf("remaining = %v after the refusal, want 10", rem)
	}
	// The same query at record level runs and is charged.
	q.Options.UserLevel = false
	if _, charged, err := s.Run(context.Background(), q); err != nil || charged != 1 {
		t.Errorf("helper ranges at record level: charged %v, err %v", charged, err)
	}
}

// A user who owns more rows than a block holds no longer decides whether a
// user-level query answers: each user contributes at most β rows, so the
// query answers and is charged ε once at every β, below the largest user's
// row count and above it. A failure below it would state that count after
// the charge.
func TestUserLevelOversizedUserAnswersAtEveryBlockSize(t *testing.T) {
	rows := make([]mathutil.Vec, 400)
	for i := range rows {
		user := 1 + i/3
		if i%13 == 0 && i < 13*30 {
			user = 0 // user 0 owns 30 rows spread over the table
		}
		rows[i] = mathutil.Vec{float64(i % 50), float64(user)}
	}
	tbl, err := dataset.FromRows([]string{"v", "user"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	reg := dataset.NewRegistry()
	r, err := reg.Register("ds", tbl, dataset.RegisterOptions{TotalBudget: 10, AgedFraction: 0.15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, row := range r.Private.View() {
		if row[1] == 0 {
			largest++
		}
	}
	t.Logf("user 0 keeps %d of its 30 rows after the aged split", largest)
	s := &Stage{Registry: reg, Budget: budget.NewManager(reg)}
	spent := 0.0
	for _, beta := range []int{10, 20, largest - 1, largest, largest + 3} {
		q := &Query{
			Dataset: "ds", Program: analytics.Mean{Col: 0},
			Ranges:  core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: 50}}},
			Options: core.Options{Epsilon: 1, BlockSize: beta, Seed: 1, UserLevel: true, UserColumn: 1},
		}
		res, charged, err := s.Run(context.Background(), q)
		if err != nil || res == nil || charged != 1 {
			t.Fatalf("β=%d: res %v, charged %v, err %v; want an answer for ε = 1", beta, res, charged, err)
		}
		spent += charged
		if rem := r.Accountant.Remaining(); rem != 10-spent {
			t.Errorf("β=%d: remaining %v, want %v", beta, rem, 10-spent)
		}
	}
}

// vandal is the state-attack program: it computes its inner program's
// honest answer, then zeroes every row of its block and reverses the block.
type vandal struct{ analytics.Program }

func (v vandal) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	out, err := v.Program.Run(block)
	for i, j := 0, len(block)-1; i < j; i, j = i+1, j-1 {
		block[i], block[j] = block[j], block[i]
	}
	for _, r := range block {
		for k := range r {
			r[k] = 0
		}
	}
	return out, err
}

// bareChamber runs its program on the very block it is handed and is not a
// sandbox.RowChamber, so sandbox.Rows owes it a private copy.
type bareChamber struct{ prog analytics.Program }

func (c bareChamber) Execute(_ context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.prog.Run(block)
}

// tableHash digests every cell of every row in order, with row boundaries,
// so zeroed, reordered or swapped rows all show.
func tableHash(tbl *dataset.Table) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range tbl.View() {
		for _, v := range r {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// A charged query reads the registered table's cells in place, so a host
// chamber factory whose chambers are not RowChambers must still hand each
// block a private copy: a program that vandalises its block changes neither
// the table nor any answer, alone or with two attacks at once. γ = 2 puts
// every record in two blocks.
func TestUndeclaredChamberCannotReachTheTable(t *testing.T) {
	ctx := context.Background()
	query := func(seed int64, attack bool) *Query {
		q := &Query{Dataset: "ds", Program: analytics.Mean{Col: 0},
			Ranges:  core.RangeSpec{Output: []dp.Range{{Lo: 0, Hi: 150}}},
			Options: core.Options{Epsilon: 1, BlockSize: 100, Gamma: 2, Seed: seed}}
		if attack {
			q.Options.NewChamber = func(prog analytics.Program, _ sandbox.Policy) sandbox.Chamber {
				return bareChamber{vandal{prog}}
			}
		}
		return q
	}
	// What a stage no vandal ever touched releases for each seed.
	fresh, _ := planStage(t, 1000, 0)
	want := map[int64]float64{}
	for seed := int64(31); seed <= 34; seed++ {
		res, _, err := fresh.Run(ctx, query(seed, false))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res.Output[0]
	}

	s, r := planStage(t, 1000, 0)
	registered := tableHash(r.Private)
	check := func(seed int64, attack bool) {
		res, _, err := s.Run(ctx, query(seed, attack))
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		} else if math.Float64bits(res.Output[0]) != math.Float64bits(want[seed]) {
			t.Errorf("seed %d (attack=%v) released %v, an untouched stage %v", seed, attack, res.Output[0], want[seed])
		}
	}
	check(31, true)
	check(32, false)
	var wg sync.WaitGroup
	for _, seed := range []int64{33, 34} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(seed, true)
		}()
	}
	wg.Wait()
	if got := tableHash(r.Private); got != registered {
		t.Errorf("table hashes %x after the attacks, %x at registration", got, registered)
	}
}
