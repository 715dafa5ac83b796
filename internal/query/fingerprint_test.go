package query

import (
	"math"
	"testing"
	"time"

	"gupt/internal/aging"
	"gupt/internal/analytics"
	"gupt/internal/core"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/qcache"
	"gupt/internal/sandbox"
)

// fpStage fingerprints with a cache present (a nil cache skips hashing).
var fpStage = &Stage{Cache: qcache.New(qcache.Config{MaxEntries: 1})}

func baseQuery() *Query {
	return &Query{
		Dataset: "census",
		Program: analytics.Mean{Col: 2},
		Ranges:  core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}},
		Options: core.Options{Epsilon: 0.5, BlockSize: 250, Gamma: 3, Seed: 42},
	}
}

func mustFingerprint(t *testing.T, q *Query, version uint64) qcache.Fingerprint {
	t.Helper()
	fp, ok := fpStage.queryFingerprint(q, version)
	if !ok {
		t.Fatalf("query %+v is uncachable", q)
	}
	return fp
}

// TestFingerprintDistinct mutates every distribution-relevant field of a
// base query one at a time and requires every mutant (plus a content
// version bump, a tenant change and the session form) to fingerprint apart
// from the base and from each other.
func TestFingerprintDistinct(t *testing.T) {
	mutants := map[string]func(*Query){
		"epsilon":         func(q *Query) { q.Options.Epsilon = 0.6 },
		"clamp-hi":        func(q *Query) { q.Ranges.Output[0].Hi = 151 },
		"clamp-lo":        func(q *Query) { q.Ranges.Output[0].Lo = -1 },
		"clamp-count":     func(q *Query) { q.Ranges.Output = append(q.Ranges.Output, dp.Range{Lo: 0, Hi: 1}) },
		"program-type":    func(q *Query) { q.Program = analytics.Median{Col: 2} },
		"program-col":     func(q *Query) { q.Program = analytics.Mean{Col: 3} },
		"program-kmeans":  func(q *Query) { q.Program = analytics.KMeans{K: 3, FeatureDims: 2, Iters: 5, Seed: 1} },
		"kmeans-seed":     func(q *Query) { q.Program = analytics.KMeans{K: 3, FeatureDims: 2, Iters: 5, Seed: 2} },
		"program-logreg":  func(q *Query) { q.Program = analytics.LogisticRegression{FeatureDims: 2, LabelCol: 2, LearnRate: 0.1} },
		"logreg-rate":     func(q *Query) { q.Program = analytics.LogisticRegression{FeatureDims: 2, LabelCol: 2, LearnRate: 0.2} },
		"program-pad":     func(q *Query) { q.Program = analytics.Pad{Inner: analytics.Mean{Col: 2}, Dims: 2} },
		"program-binary":  func(q *Query) { q.Program = Binary{Path: "/bin/app", Dims: 1} },
		"binary-args":     func(q *Query) { q.Program = Binary{Path: "/bin/app", Args: []string{"-x"}, Dims: 1} },
		"block-size":      func(q *Query) { q.Options.BlockSize = 251 },
		"gamma":           func(q *Query) { q.Options.Gamma = 4 },
		"auto-block":      func(q *Query) { q.AutoBlockSize = true },
		"seed":            func(q *Query) { q.Options.Seed = 43 },
		"mode-loose":      func(q *Query) { q.Ranges.Mode = core.ModeLoose },
		"mode-helper":     func(q *Query) { q.Ranges.Mode = core.ModeHelper },
		"linear":          func(q *Query) { q.Linear = &Linear{InputDim: []int{0}, Scale: []float64{1}, Offset: []float64{0}} },
		"linear-scale":    func(q *Query) { q.Linear = &Linear{InputDim: []int{0}, Scale: []float64{2}, Offset: []float64{0}} },
		"input-ranges":    func(q *Query) { q.Ranges.Input = []dp.Range{{Lo: 0, Hi: 1}} },
		"dataset":         func(q *Query) { q.Dataset = "census2" },
		"tenant":          func(q *Query) { q.Tenant = "alice" },
		"tenant-other":    func(q *Query) { q.Tenant = "bob" },
		"user-level":      func(q *Query) { q.Options.UserLevel = true },
		"user-column":     func(q *Query) { q.Options.UserLevel = true; q.Options.UserColumn = 1 },
		"accuracy":        func(q *Query) { q.Options.Epsilon = 0; q.Accuracy = &aging.AccuracyGoal{Rho: 0.9, Confidence: 0.9} },
		"accuracy-rho":    func(q *Query) { q.Options.Epsilon = 0; q.Accuracy = &aging.AccuracyGoal{Rho: 0.8, Confidence: 0.9} },
		"quantum":         func(q *Query) { q.Options.Quantum = 100 * time.Millisecond },
		"block-timeout":   func(q *Query) { q.Options.BlockTimeout = time.Second },
		"max-fail-frac":   func(q *Query) { q.Options.MaxFailFrac = 0.5 },
		"percentile-pair": func(q *Query) { q.Ranges.PercentileLow = 0.1; q.Ranges.PercentileHigh = 0.9 },
	}
	seen := map[qcache.Fingerprint]string{mustFingerprint(t, baseQuery(), 7): "base"}
	record := func(name string, fp qcache.Fingerprint) {
		t.Helper()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}
	record("content-version", mustFingerprint(t, baseQuery(), 8))
	for name, mutate := range mutants {
		q := baseQuery()
		mutate(q)
		record(name, mustFingerprint(t, q, 7))
	}
	// A one-member session is a different release than the bare query (its
	// ε comes from the session), and its total ε separates keys.
	for name, total := range map[string]float64{"session": 0.5, "session-total": 0.6} {
		member := baseQuery()
		member.Options.Epsilon = 0
		fp, ok := fpStage.sessionFingerprint(&Session{Dataset: "census", TotalEpsilon: total, Members: []Query{*member}}, 7)
		if !ok {
			t.Fatalf("%s uncachable", name)
		}
		record(name, fp)
	}
}

// TestFingerprintCachability pins which queries may be cached at all:
// anything the hash cannot see inside stays out, while the canonical forms
// a host can name (Linear translations, Binary programs) stay in.
func TestFingerprintCachability(t *testing.T) {
	cases := map[string]struct {
		mutate   func(*Query)
		cachable bool
	}{
		"builtin": {func(*Query) {}, true},
		"func program": {func(q *Query) {
			q.Program = analytics.Func{ProgName: "f", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) { return nil, nil }}
		}, false},
		"padded func": {func(q *Query) {
			q.Program = analytics.Pad{Dims: 2, Inner: analytics.Func{ProgName: "f", Dims: 1}}
		}, false},
		"translate closure": {func(q *Query) {
			q.Ranges.Mode = core.ModeHelper
			q.Ranges.Translate = func(in []dp.Range) []dp.Range { return in }
		}, false},
		"analyst chambers": {func(q *Query) {
			q.Options.NewChamber = func(p analytics.Program, pol sandbox.Policy) sandbox.Chamber { return nil }
			q.Uncachable = true
		}, false},
		"host chambers": {func(q *Query) {
			q.Options.NewChamber = func(p analytics.Program, pol sandbox.Policy) sandbox.Chamber { return nil }
		}, true},
		"linear translate": {func(q *Query) {
			q.Ranges.Mode = core.ModeHelper
			q.Linear = &Linear{InputDim: []int{0}, Scale: []float64{1}, Offset: []float64{0}}
		}, true},
		"binary program": {func(q *Query) { q.Program = Binary{Path: "/bin/app", Dims: 1} }, true},
	}
	for name, c := range cases {
		q := baseQuery()
		c.mutate(q)
		if _, ok := fpStage.queryFingerprint(q, 1); ok != c.cachable {
			t.Errorf("%s: cachable = %v, want %v", name, ok, c.cachable)
		}
		if _, ok := fpStage.sessionFingerprint(&Session{Dataset: "census", TotalEpsilon: 1, Members: []Query{*baseQuery(), *q}}, 1); ok != c.cachable {
			t.Errorf("%s as session member: cachable = %v, want %v", name, ok, c.cachable)
		}
	}
	if _, ok := (&Stage{}).queryFingerprint(baseQuery(), 1); ok {
		t.Error("a stage without a cache fingerprinted a query")
	}
}

// TestFingerprintRepresentationStable describes one query the ways the two
// hosts do — freshly allocated slices, defaults spelled out or left zero,
// host-side fields (label, trace, chambers, deadline) set or not — and
// requires one fingerprint: the key is over the released distribution, not
// over how the description was assembled.
func TestFingerprintRepresentationStable(t *testing.T) {
	want := mustFingerprint(t, baseQuery(), 7)
	variants := map[string]func(*Query){
		"fresh slices":    func(q *Query) { q.Ranges.Output = append([]dp.Range(nil), q.Ranges.Output...) },
		"zero-value mode": func(q *Query) { q.Ranges.Mode = 0 },
		"empty input":     func(q *Query) { q.Ranges.Input = []dp.Range{} },
		"label":           func(q *Query) { q.Label = "census:mean" },
		"deadline":        func(q *Query) { q.Deadline = time.Now().Add(time.Hour) },
		"parallelism":     func(q *Query) { q.Options.Parallelism = 8 },
		"host chambers": func(q *Query) {
			q.Options.NewChamber = func(p analytics.Program, pol sandbox.Policy) sandbox.Chamber { return nil }
		},
	}
	for name, vary := range variants {
		q := baseQuery()
		vary(q)
		if fp := mustFingerprint(t, q, 7); fp != want {
			t.Errorf("%s moved the fingerprint; representation leaked into the key", name)
		}
	}
}

// FuzzFingerprint holds the fingerprint to its contracts on arbitrary field
// values: determinism, independence from how the description was allocated,
// and distinctness under mutation of ε, clamp range, program parameters,
// block geometry, seed, tenant and dataset content version.
func FuzzFingerprint(f *testing.F) {
	f.Add("census", "", 2, 0.5, 0.0, 150.0, 250, 3, int64(42), false, uint64(7))
	f.Add("", "alice", -1, math.Inf(1), -0.0, 0.0, 0, 0, int64(-1), true, uint64(0))
	f.Add("d\x00s", "t", 1<<40, math.NaN(), 1e300, -1e300, -5, 1, int64(math.MinInt64), false, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, ds, tenant string, col int, eps, lo, hi float64, blockSize, gamma int, seed int64, userLevel bool, version uint64) {
		build := func() *Query {
			return &Query{
				Tenant: tenant, Dataset: ds,
				Program: analytics.Mean{Col: col},
				Ranges:  core.RangeSpec{Output: []dp.Range{{Lo: lo, Hi: hi}}},
				Options: core.Options{Epsilon: eps, BlockSize: blockSize, Gamma: gamma, Seed: seed, UserLevel: userLevel},
			}
		}
		fp, ok := fpStage.queryFingerprint(build(), version)
		if !ok {
			t.Fatal("builtin query uncachable")
		}
		if again, _ := fpStage.queryFingerprint(build(), version); again != fp {
			t.Fatalf("fingerprint not deterministic: %s then %s", fp, again)
		}
		if other, _ := fpStage.queryFingerprint(build(), version+1); other == fp {
			t.Fatal("content version bump did not change the fingerprint")
		}
		mutants := []func(*Query){
			func(q *Query) { q.Tenant += "x" },
			func(q *Query) { q.Dataset += "x" },
			func(q *Query) { q.Options.Epsilon = math.Float64frombits(math.Float64bits(q.Options.Epsilon) ^ 1) },
			func(q *Query) { q.Options.BlockSize++ },
			func(q *Query) { q.Options.Gamma++ },
			func(q *Query) { q.Options.Seed++ },
			func(q *Query) { q.Options.UserLevel = !q.Options.UserLevel },
			func(q *Query) { q.Program = analytics.Mean{Col: col + 1} },
			func(q *Query) { q.Program = analytics.Median{Col: col} },
			func(q *Query) { q.Ranges.Output[0].Hi = math.Float64frombits(math.Float64bits(hi) ^ 1) },
			func(q *Query) { q.Ranges.Output = append(q.Ranges.Output, dp.Range{Lo: 0, Hi: 1}) },
		}
		for i, mutate := range mutants {
			q := build()
			mutate(q)
			if got, _ := fpStage.queryFingerprint(q, version); got == fp {
				t.Fatalf("mutation %d did not change the fingerprint", i)
			}
		}
	})
}
