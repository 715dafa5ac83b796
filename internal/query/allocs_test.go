package query

import (
	"context"
	"testing"

	"gupt/internal/allocguard"
	"gupt/internal/analytics"
	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/qcache"
)

// A query's fixed cost through the stage stays put: a charged tight mean
// over a 20,000-row table (plan, charge, partition, blocks, noise), a cache
// hit and a quota refusal. Block storage and the generators are recycled,
// so nothing here grows with the table. The bounds are what the stage
// measured when they were set (go1.24, 2 vCPU): a charged query made 125
// allocations of 2.11–2.20 KB, a hit 4 of 416 B, a refusal 1 of 16 B.
func TestStageRunAllocations(t *testing.T) {
	allocguard.SkipUnderRace(t, "the race detector's sync.Pool drops recycled storage")
	ctx := context.Background()
	rows := make([]mathutil.Vec, 20000)
	for i := range rows {
		rows[i] = mathutil.Vec{float64(i % 50)}
	}
	tbl, err := dataset.FromRows([]string{"v"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	reg := dataset.NewRegistry()
	if _, err := reg.Register("ds", tbl, dataset.RegisterOptions{TotalBudget: 1e9}); err != nil {
		t.Fatal(err)
	}
	q := &Query{
		Dataset: "ds", Program: analytics.Mean{},
		Ranges:  core.RangeSpec{Output: []dp.Range{{Lo: 0, Hi: 50}}},
		Options: core.Options{Epsilon: 1e-3, Seed: 7},
	}
	run := func(s *Stage, q *Query, wantErr bool) func() {
		return func() {
			if _, _, err := s.Run(ctx, q); (err != nil) != wantErr {
				t.Fatalf("err %v", err)
			}
		}
	}

	charged := run(&Stage{Registry: reg, Budget: budget.NewManager(reg)}, q, false)
	if n := testing.AllocsPerRun(50, charged); n > 125 {
		t.Errorf("charged query: %v allocations, want ≤ 125", n)
	}
	if b := allocguard.Bytes(charged); b > 2400 {
		t.Errorf("charged query: %d B, want ≤ 2400", b)
	}

	cached := &Stage{Registry: reg, Budget: budget.NewManager(reg), Cache: qcache.New(qcache.Config{MaxEntries: 4})}
	hit := run(cached, q, false)
	if _, _, err := cached.Run(ctx, q); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, hit); n > 4 {
		t.Errorf("cache hit: %v allocations, want ≤ 4", n)
	}
	if b := allocguard.Bytes(hit); b > 416 {
		t.Errorf("cache hit: %d B, want ≤ 416", b)
	}

	s, quota, _ := refusalStage(t, 20000)
	refused := run(s, quota, true)
	if n := testing.AllocsPerRun(50, refused); n > 1 {
		t.Errorf("quota refusal: %v allocations, want 1", n)
	}
	if b := allocguard.Bytes(refused); b > 16 {
		t.Errorf("quota refusal: %d B, want 16", b)
	}
}
