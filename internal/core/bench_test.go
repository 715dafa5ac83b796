package core

import (
	"context"
	"sync"
	"testing"

	"gupt/internal/allocguard"
	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// benchRows is an n-row census-like age column laid out as a registered
// table is: one row-major Matrix.
func benchRows(n int) mathutil.Matrix {
	rng := mathutil.NewRNG(1)
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150)
	}
	return mathutil.NewMatrix(cells, n, 1)
}

func BenchmarkMakePartition(b *testing.B) {
	rng := mathutil.NewRNG(1)
	for i := 0; i < b.N; i++ {
		if _, err := MakePartition(rng, 30000, 450, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakePartitionResampled(b *testing.B) {
	rng := mathutil.NewRNG(1)
	for i := 0; i < b.N; i++ {
		if _, err := MakePartition(rng, 30000, 450, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunMeanQuery(b *testing.B) {
	rows := benchRows(30000)
	spec := RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec,
			Options{Epsilon: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestViewAllocations pins View's contract: exactly one allocation (the
// header slice aliasing the dataset's rows), regardless of block size. The
// engine no longer builds views — each chamber copies its block straight
// from the rows — but the benchmark harness's replay still times one.
func TestViewAllocations(t *testing.T) {
	rng := mathutil.NewRNG(7)
	rows := benchRows(10000).Rows()
	part, err := MakePartition(rng, len(rows), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sink []mathutil.Vec
	allocs := testing.AllocsPerRun(100, func() {
		sink = part.View(rows, 0)
	})
	if allocs != 1 {
		t.Fatalf("View allocates %.0f times per call, want exactly 1", allocs)
	}
	_ = sink

	// The views must alias, not copy: mutating a row through the dataset
	// must be visible through the view (this is why no chamber that might
	// mutate its block is handed one).
	v := part.View(rows, 0)
	if &v[0][0] != &rows[part.Blocks[0][0]][0] {
		t.Fatal("View copied row storage instead of aliasing it")
	}
}

// TestRunAllocations pins the engine's copy boundary on the 20 000×1 census
// shape, in counts and in bytes: each block is gathered from the rows
// straight into the chamber's recycled private copy, with no view of it
// built first, the permutation lives in recycled storage, γ = 1 blocks alias
// the permutation, Mean reads its column in place, the four generators come
// from the RNG pool, and each block runs on its worker with no goroutine of
// its own. What is left is per-query bookkeeping (the workers, the output
// matrix) and each block's output. With a fresh copy per block and a fresh
// permutation per query this measured ≈ 1,035 KiB in 554 allocations; with
// four fresh generators, 75 KiB in 449; with two goroutines per block, 54
// KiB in 437; with a view of every block in per-worker scratch before the
// chamber's copy, 16–22 KiB in 126.
func TestRunAllocations(t *testing.T) {
	allocguard.SkipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
	rows := benchRows(20000)
	spec := RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}}
	run := func() {
		if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, Options{Epsilon: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Measured 125 allocations and 3.3 KiB; the bounds are that + 20 %.
	if allocs := testing.AllocsPerRun(10, run); allocs > 150 {
		t.Errorf("Run over 20000 rows allocates %.0f times, want <= 150", allocs)
	}
	if kib := float64(allocguard.Bytes(run)) / 1024; kib > 4 {
		t.Errorf("Run over 20000 rows allocates %.1f KiB, want <= 4", kib)
	}
}

// Concurrent runs draw their permutations and block copies from the same
// process-wide pools; each must still release exactly what it releases
// alone. Under -race this is the check that no run's storage is handed on
// while that run still reads it.
func TestConcurrentRunsOnRecycledStorage(t *testing.T) {
	rows := benchRows(5000)
	spec := RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}}
	run := func(seed int64) float64 {
		res, err := Run(context.Background(), analytics.Median{Col: 0}, rows, spec, Options{Epsilon: 1, Seed: seed})
		if err != nil {
			t.Error(err)
			return 0
		}
		return res.Output[0]
	}
	const workers, rounds = 4, 8
	var want [workers]float64
	for w := range want {
		want[w] = run(int64(w))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if got := run(int64(w)); got != want[w] {
					t.Errorf("seed %d released %v alongside other runs, %v alone", w, got, want[w])
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkBlockGather times the hand-off the engine makes for every block
// of a 30,000-row mean query: the chamber gathers the block from the rows
// into its pooled private copy.
func BenchmarkBlockGather(b *testing.B) {
	rng := mathutil.NewRNG(7)
	rows := benchRows(30000)
	part, err := MakePartition(rng, rows.Len(), 450, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < part.NumBlocks(); j++ {
			buf := mathutil.GetRowBuf()
			buf.Gather(rows, part.Blocks[j])
			buf.Release()
		}
	}
}

func BenchmarkRunLooseMode(b *testing.B) {
	rows := benchRows(30000)
	spec := RangeSpec{Mode: ModeLoose, Output: []dp.Range{{Lo: 0, Hi: 300}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec,
			Options{Epsilon: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
