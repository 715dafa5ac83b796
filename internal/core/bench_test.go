package core

import (
	"context"
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
// regardless of block size. Materialize clones every row, so its allocation
// count grows with the block — the cost View exists to avoid on the worker
// wire path, where the encoder reads the row floats directly.
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
// shape: no per-row allocation anywhere — one flat private copy per block in
// the chamber, view headers reused per parallelism slot, γ = 1 blocks
// aliasing the permutation.
func TestRunAllocations(t *testing.T) {
	rows := benchRows(20000)
	spec := RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, Options{Epsilon: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("Run over 20000 rows allocates %.0f times, want <= 1000", allocs)
	}
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

func BenchmarkPartitionMaterialize(b *testing.B) {
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
			_ = part.Materialize(rows, j)
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
