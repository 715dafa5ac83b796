// Package allocguard measures what the byte guards bound: the heap bytes a
// call allocates once its recycled storage is warm. A guard reads the
// process-wide runtime.MemStats.TotalAlloc, so anything else that allocates
// inside its window is counted too, and a collection inside the window
// empties the sync.Pools the call recycles through, so the next call pays
// for fresh storage. Bytes shuts out both; it is imported by tests only.
package allocguard

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// SkipUnderRace skips tb when the binary was built with the race detector,
// which distorts what a guard measures: sync.Pool drops a quarter of what is
// Put on purpose, and instrumented code runs several times slower.
func SkipUnderRace(tb testing.TB, why string) {
	tb.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				tb.Skip(why)
			}
		}
	}
}

// Bytes returns the mean heap bytes one call of f allocates over 20 calls.
// It first waits for goroutines that earlier tests left running to finish,
// collects, and turns the collector off; then it calls f once to warm
// whatever f recycles and measures three windows of 20 calls each,
// returning the smallest. The GC percentage is restored before it returns.
//
// One window is not enough even with the collector off. A sync.Pool keeps a
// private slot per P that no other P can take from, and the runtime keeps
// dead goroutines on per-P free lists, so a call whose goroutines land on a
// P they have not run on before can miss the buffer another P holds (a
// 385-row block: one 12.7 KiB refill) or allocate goroutine records. That
// happened in about one window in 200; it leaves that P warm for the next
// window, and a call that allocates on every run shows in all three.
func Bytes(f func()) uint64 {
	const runs = 20
	settle()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	best := ^uint64(0)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return best
}

// settle waits until the goroutine count has held still for 20 ms, or one
// second has passed: long enough for a program an earlier test abandoned,
// or a server it shut down, to finish and stop allocating.
func settle() {
	const still, limit = 20 * time.Millisecond, time.Second
	start := time.Now()
	n, since := runtime.NumGoroutine(), start
	for time.Since(since) < still && time.Since(start) < limit {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
}
