package sandbox

import (
	"context"
	"os"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/mathutil"
)

func benchBlock(n int) []mathutil.Vec {
	out := make([]mathutil.Vec, n)
	for i := range out {
		out[i] = mathutil.Vec{float64(i % 150)}
	}
	return out
}

func BenchmarkInProcessExecute(b *testing.B) {
	ch := &InProcess{Program: analytics.Mean{Col: 0}}
	block := benchBlock(500)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Execute(ctx, block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubprocessExecute measures the full isolation cost per block:
// process spawn, scratch setup/teardown, and protocol serialization.
func BenchmarkSubprocessExecute(b *testing.B) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	ch := &Subprocess{
		Path:        exe,
		ScratchRoot: b.TempDir(),
		ExtraEnv:    []string{"GUPT_TEST_APP=mean"},
	}
	block := benchBlock(500)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Execute(ctx, block); err != nil {
			b.Fatal(err)
		}
	}
}
