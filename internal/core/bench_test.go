package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

func benchRows(n int) []mathutil.Vec {
	rng := mathutil.NewRNG(1)
	rows := make([]mathutil.Vec, n)
	for i := range rows {
		rows[i] = mathutil.Vec{mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150)}
	}
	return rows
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

// TestViewAllocations pins the zero-copy hand-off contract: View performs
// exactly one allocation (the header slice aliasing the dataset's rows),
// regardless of block size — on the worker wire path the encoder reads the
// row floats directly, and the in-process chamber copies them once itself.
func TestViewAllocations(t *testing.T) {
	rng := mathutil.NewRNG(7)
	rows := benchRows(10000)
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
	// must be visible through the view (this is why only chambers that
	// declare ReadOnlyBlocks get views).
	v := part.View(rows, 0)
	if &v[0][0] != &rows[part.Blocks[0][0]][0] {
		t.Fatal("View copied row storage instead of aliasing it")
	}
}

// TestRunAllocations pins the engine's copy boundary on the 20 000×1 census
// shape, in counts and in bytes: the private block copies and the
// permutation live in recycled storage, view headers are reused per
// parallelism slot, γ = 1 blocks alias the permutation, and Mean reads its
// column in place. What is left is per-query bookkeeping (four RNG sources,
// slot scratch, a goroutine per block). With a fresh copy per block and a
// fresh permutation per query this measured ≈ 1,035 KiB in 554 allocations.
func TestRunAllocations(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool is deliberately lossy under the race detector")
			}
		}
	}
	rows := benchRows(20000)
	spec := RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}}
	run := func() {
		if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, Options{Epsilon: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Measured 449 allocations; the bound is that + 20 %.
	if allocs := testing.AllocsPerRun(10, run); allocs > 540 {
		t.Errorf("Run over 20000 rows allocates %.0f times, want <= 540", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if kib := float64(after.TotalAlloc-before.TotalAlloc) / 20 / 1024; kib > 128 {
		t.Errorf("Run over 20000 rows allocates %.0f KiB, want <= 128", kib)
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

func BenchmarkPartitionView(b *testing.B) {
	rng := mathutil.NewRNG(7)
	rows := benchRows(30000)
	part, err := MakePartition(rng, len(rows), 450, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < part.NumBlocks(); j++ {
			_ = part.View(rows, j)
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
