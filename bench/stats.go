package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the p-quantile of xs (0 ≤ p ≤ 1) by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietDecile is the value a round-based metric reports: the decile of its
// per-round values on the good side (p10 when lower is better, p90 when
// higher is). On a shared box the noise is one-sided — a neighbour only ever
// slows a round down, often for seconds on end — so the median of the rounds
// moves by tens of per cent when half a run is disturbed, and the quiet decile
// does not until nine tenths of it are. Over ten runs each of seven workloads
// its run-to-run spread was half the median's in a noisy hour and no worse in
// a quiet one.
func quietDecile(xs []float64, better string) float64 {
	if better == "higher" {
		return quantile(xs, 0.90)
	}
	return quantile(xs, 0.10)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is the p25–p75 distance of xs as a share of its median: the
// run-to-run noise figure printed beside every median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usage is a snapshot of the process-wide cost counters the end-to-end
// metrics are deltas of.
type usage struct {
	cpu        time.Duration // user + system
	totalAlloc uint64        // bytes allocated since process start
	maxRSSKiB  int64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		cpu:        tv(ru.Utime) + tv(ru.Stime),
		totalAlloc: ms.TotalAlloc,
		maxRSSKiB:  int64(ru.Maxrss), // KiB on Linux
	}
}
