package sandbox

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gupt/internal/allocguard"
	"gupt/internal/analytics"
	"gupt/internal/mathutil"
)

// These tests hold the in-process chamber to the four rules that make its
// recycled block storage as private as the fresh copy it replaced (see
// InProcess). They mean most under -race: a buffer handed on while a
// program still reads it is a data race.

// The chamber's private copy is flat and recycled: after one warm call a
// block costs the output vector, not its rows, and on the goroutine arm the
// goroutine and the result channel besides. A fresh copy per block cost
// 16 KiB in 7 allocations here.
func TestInProcessExecuteAllocations(t *testing.T) {
	allocguard.SkipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
	ch := &InProcess{Program: analytics.Mean{Col: 0}}
	block := testBlock(385)
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, arm := range []struct {
		name               string
		ctx                context.Context
		maxBytes, maxAlloc float64
	}{
		// Nothing can interrupt the block, so it runs on the caller's
		// goroutine: Mean's output and its copy. Measured 16 bytes in 2
		// allocations; the bounds are that + 20 %.
		{"in place", context.Background(), 19, 2},
		// A cancellable context keeps the program goroutine. Measured 240
		// bytes in 5 allocations; the bounds are that + 20 %.
		{"goroutine", cancellable, 288, 6},
	} {
		run := func() {
			if _, err := ch.Execute(arm.ctx, block); err != nil {
				t.Fatal(err)
			}
		}
		if bytes := allocguard.Bytes(run); float64(bytes) > arm.maxBytes {
			t.Errorf("%s: Execute on a 385-row block allocates %d bytes in steady state, want <= %.0f", arm.name, bytes, arm.maxBytes)
		}
		if allocs := testing.AllocsPerRun(50, run); allocs > arm.maxAlloc {
			t.Errorf("%s: Execute on a 385-row block allocates %.0f times, want <= %.0f", arm.name, allocs, arm.maxAlloc)
		}
	}
}

// sumBlock adds up column 0; a straggler keeps doing it until its deadline.
func sumBlock(block []mathutil.Vec) float64 {
	var s float64
	for _, r := range block {
		s += r[0]
	}
	return s
}

// stragglerProgram sums its block over and over for 200 ms when the block's
// first value is negative — long past the 20 ms quantum that kills it — and
// reports its last sum on done. Any other block is summed once.
func stragglerProgram(done chan<- float64) analytics.Program {
	return analytics.Func{ProgName: "straggler", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		if block[0][0] >= 0 {
			return mathutil.Vec{sumBlock(block)}, nil
		}
		var last float64
		for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
			last = sumBlock(block)
		}
		done <- last
		return mathutil.Vec{last}, nil
	}}
}

// Rule one: a killed program's goroutine keeps its storage until it really
// ends. While the straggler is still summing, 50 more blocks go through the
// same chamber; none of them may be written into the rows it is reading.
func TestAbandonedProgramKeepsItsBuffer(t *testing.T) {
	done := make(chan float64, 1)
	ch := &InProcess{Program: stragglerProgram(done), Policy: Policy{Quantum: 20 * time.Millisecond}}
	ctx := context.Background()

	slow := testBlock(385)
	slow[0] = mathutil.Vec{-1}
	want := sumBlock(slow)
	if _, err := ch.Execute(ctx, slow); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed block err = %v, want ErrKilled", err)
	}
	for i := 0; i < 50; i++ {
		block := testBlock(385)
		for _, r := range block {
			r[0] += 1000 // nothing like the straggler's values
		}
		// (A loaded box may kill an honest block too.)
		out, err := ch.Execute(ctx, block)
		if errors.Is(err, ErrKilled) {
			continue
		}
		if err != nil || out[0] != sumBlock(block) {
			t.Fatalf("block %d released %v, %v; want its own sum %v", i, out, err, sumBlock(block))
		}
	}
	select {
	case got := <-done:
		if got != want {
			t.Errorf("the straggler's last sum was %v, its own block sums to %v: its storage was reused under it", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the straggler never finished")
	}
}

// Rule two: an output that aliases the block is copied out before the
// storage moves on, so the next block cannot overwrite a released answer.
func TestAliasedOutputSurvivesReuse(t *testing.T) {
	first := analytics.Func{ProgName: "first-row", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		return block[0], nil
	}}
	ch := &InProcess{Program: first}
	ctx := context.Background()
	// On one P the pool hands each block the buffer the last one released,
	// so a missed copy shows every time instead of once in a while.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	outs := make([]mathutil.Vec, 20)
	for i := range outs {
		out, err := ch.Execute(ctx, []mathutil.Vec{{float64(i)}, {-1}})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	for i, out := range outs {
		if len(out) != 1 || out[0] != float64(i) {
			t.Errorf("answer %d reads %v after later blocks ran, want [%d]", i, out, i)
		}
	}
}

// Rule three: after a 500-row block, a 100-row block cannot re-slice its way
// back to the other 400 rows, nor any row past its own end.
func TestRecycledBlockCannotReachBack(t *testing.T) {
	var shortCaps []string
	probe := analytics.Func{ProgName: "caps", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		if cap(block) != len(block) {
			shortCaps = append(shortCaps, "block")
		}
		for _, r := range block {
			if cap(r) != len(r) {
				shortCaps = append(shortCaps, "row")
			}
		}
		return mathutil.Vec{float64(len(block))}, nil
	}}
	ch := &InProcess{Program: probe}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		for _, n := range []int{500, 100} {
			if out, err := ch.Execute(ctx, testBlock(n)); err != nil || out[0] != float64(n) {
				t.Fatalf("probe over %d rows = %v, %v", n, out, err)
			}
		}
	}
	if len(shortCaps) > 0 {
		t.Errorf("%d slices handed to the program had cap > len (first: %s): stale storage reachable", len(shortCaps), shortCaps[0])
	}
}

// vandal is the state-attack program of the root package's
// TestMutatingProgramCannotReachTheTable: zero every row, reverse the block.
func vandal(block []mathutil.Vec) (mathutil.Vec, error) {
	for i, j := 0, len(block)-1; i < j; i, j = i+1, j-1 {
		block[i], block[j] = block[j], block[i]
	}
	for _, r := range block {
		for k := range r {
			r[k] = 0
		}
	}
	return mathutil.Vec{0}, nil
}

// The vandal's zeroed cells and reversed headers are exactly what the next
// block inherits; it must still see its own rows in its own order.
func TestHonestBlockAfterVandalOnRecycledStorage(t *testing.T) {
	ctx := context.Background()
	attack := &InProcess{Program: analytics.Func{ProgName: "vandal", Dims: 1, F: vandal}}
	ordered := &InProcess{Program: analytics.Func{ProgName: "weighted", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		var s float64
		for i, r := range block {
			s += float64(i+1) * r[0] // order-sensitive
		}
		return mathutil.Vec{s}, nil
	}}}
	block := testBlock(385)
	want, err := ordered.Program.Run(block)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := attack.Execute(ctx, block); err != nil {
			t.Fatal(err)
		}
		got, err := ordered.Execute(ctx, block)
		if err != nil || got[0] != want[0] {
			t.Fatalf("round %d: honest block after the vandal = %v, %v; want %v", i, got, err, want)
		}
		mean, err := (&InProcess{Program: analytics.Mean{Col: 0}}).Execute(ctx, block)
		if err != nil || mean[0] != 192 {
			t.Fatalf("round %d: mean after the vandal = %v, %v; want 192", i, mean, err)
		}
	}
	for i, r := range block {
		if r[0] != float64(i) {
			t.Fatalf("the caller's row %d = %v after the attacks", i, r[0])
		}
	}
}

// Release is the owning caller's hook: once per started program, on the
// program's goroutine, after the output was copied out — and not before a
// killed program has really ended.
func TestInProcessReleaseHook(t *testing.T) {
	ctx := context.Background()
	released := make(chan struct{}, 1)
	block := testBlock(4)
	first := analytics.Func{ProgName: "first-row", Dims: 1, F: func(b []mathutil.Vec) (mathutil.Vec, error) { return b[0], nil }}
	ch := &InProcess{Program: first, OwnsBlock: true, Release: func() {
		block[0][0] = -99 // what the next owner of the storage would do
		released <- struct{}{}
	}}
	out, err := ch.Execute(ctx, block)
	if err != nil || out[0] != 0 {
		t.Fatalf("aliased output = %v, %v; want [0] copied out before Release ran", out, err)
	}
	<-released

	// A panicking program is done with its block too.
	bomb := &InProcess{Program: analytics.Func{ProgName: "bomb", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) { panic("boom") }},
		OwnsBlock: true, Release: func() { released <- struct{}{} }}
	if _, err := bomb.Execute(ctx, block); err == nil {
		t.Fatal("panic did not surface")
	}
	<-released

	// So is one that ends its goroutine: in place that is the caller's,
	// otherwise the chamber's, whose caller then reads an empty output.
	quitter := &InProcess{Program: analytics.Func{ProgName: "quitter", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		runtime.Goexit()
		return nil, nil
	}}, OwnsBlock: true, Release: func() { released <- struct{}{} }}
	go quitter.Execute(ctx, block)
	<-released
	cancellable, cancel := context.WithCancel(ctx)
	defer cancel()
	if out, err := quitter.Execute(cancellable, block); err != nil || len(out) != 0 {
		t.Fatalf("a program that ended its goroutine released %v, %v; want an empty output", out, err)
	}
	<-released

	// A killed one is not, until it returns.
	gate := make(chan struct{})
	slow := &InProcess{
		Program:   analytics.Func{ProgName: "slow", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) { <-gate; return mathutil.Vec{1}, nil }},
		Policy:    Policy{Quantum: 10 * time.Millisecond},
		OwnsBlock: true, Release: func() { released <- struct{}{} },
	}
	if _, err := slow.Execute(ctx, block); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed block err = %v, want ErrKilled", err)
	}
	select {
	case <-released:
		t.Fatal("Release ran while the killed program was still running")
	default:
	}
	close(gate)
	<-released
}
