package gupt

import (
	"context"
	"math"
	"net"
	"testing"

	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/mathutil"
)

// The embedded Platform and the hosted compman.Server are adapters over one
// query pipeline (internal/query). These tests hold them to it: the same
// inputs must release the same bits, charge the same ε and leave the same
// balance whichever front door they came through.

const (
	pipeRows   = 2400
	pipeBudget = 1000.0
)

// pipelineRows generates a fixed table: two clustered features, a {0,1}
// label, an age-like column and a user id shared by four consecutive rows.
func pipelineRows() [][]float64 {
	rng := mathutil.NewRNG(11)
	rows := make([][]float64, pipeRows)
	for i := range rows {
		label := float64(i % 2)
		center := 4*label - 2
		rows[i] = []float64{
			center + rng.NormFloat64(),
			-center + rng.NormFloat64(),
			label,
			mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150),
			float64(i / 4),
		}
	}
	return rows
}

var (
	pipeCols   = []string{"x0", "x1", "label", "age", "user"}
	pipeRanges = []Range{{Lo: -10, Hi: 10}, {Lo: -10, Hi: 10}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 150}, {Lo: 0, Hi: pipeRows}}
)

// servedHost starts a compman.Server over the shared table, executing
// locally or fanned out over in-process workers, with the cache on.
func servedHost(t *testing.T, workers int) *compman.Client {
	t.Helper()
	var addrs []string
	for i := 0; i < workers; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		wk := compman.NewWorker(compman.WorkerConfig{})
		go wk.Serve(l) // returns when Close runs
		t.Cleanup(func() { wk.Close() })
		addrs = append(addrs, l.Addr().String())
	}
	tbl := dataset.New(pipeCols)
	for _, r := range pipelineRows() {
		if err := tbl.Append(mathutil.Vec(r)); err != nil {
			t.Fatal(err)
		}
	}
	reg := dataset.NewRegistry()
	if _, err := reg.Register("ds", tbl, dataset.RegisterOptions{
		TotalBudget: pipeBudget, Ranges: pipeRanges, AgedFraction: 0.1, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	srv := compman.NewServer(reg, compman.ServerConfig{WorkerAddrs: addrs, CacheEntries: 64})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) // returns when Close runs
	t.Cleanup(func() { srv.Close() })
	c, err := compman.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func wireRanges(rs []Range) []compman.RangeSpec {
	out := make([]compman.RangeSpec, len(rs))
	for i, r := range rs {
		out[i] = compman.RangeSpec{Lo: r.Lo, Hi: r.Hi}
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func repeat(r Range, n int) []Range {
	out := make([]Range, n)
	for i := range out {
		out[i] = r
	}
	return out
}

// TestPipelineEquivalence submits the same inputs to a gupt.Platform, a
// locally executing compman.Server and one fanning out over two workers.
func TestPipelineEquivalence(t *testing.T) {
	age := []Range{{Lo: 0, Hi: 150}}
	ageWire := wireRanges(age)
	identity := func(in []Range) []Range { return []Range{in[3]} }
	rows := []struct {
		name string
		q    Query
		req  compman.Request
		// The embedded API takes the Helper translation as a closure, which
		// the cache cannot fingerprint; every other row must hit on repeat.
		embeddedUncachable bool
	}{
		{
			name: "mean tight",
			q:    Query{Program: Mean{Col: 3}, OutputRanges: age, Epsilon: 1, Seed: 1},
			req:  compman.Request{Program: &compman.ProgramSpec{Type: "mean", Col: 3}, OutputRanges: ageWire, Epsilon: 1, Seed: 1},
		},
		{
			name: "median loose",
			q:    Query{Program: Median{Col: 3}, Mode: Loose, OutputRanges: age, Epsilon: 2, Seed: 2},
			req:  compman.Request{Program: &compman.ProgramSpec{Type: "median", Col: 3}, Mode: "loose", OutputRanges: ageWire, Epsilon: 2, Seed: 2},
		},
		{
			name: "kmeans",
			q: Query{Program: KMeans{K: 2, FeatureDims: 2, Iters: 5, Seed: 9},
				OutputRanges: repeat(Range{Lo: -10, Hi: 10}, 4), Epsilon: 2, Seed: 3},
			req: compman.Request{Program: &compman.ProgramSpec{Type: "kmeans", K: 2, FeatureDims: 2, Iters: 5, Seed: 9},
				OutputRanges: wireRanges(repeat(Range{Lo: -10, Hi: 10}, 4)), Epsilon: 2, Seed: 3},
		},
		{
			name: "logreg loose",
			q: Query{Program: LogisticRegression{FeatureDims: 2, LabelCol: 2, Iters: 20, LearnRate: 0.1}, Mode: Loose,
				OutputRanges: repeat(Range{Lo: -5, Hi: 5}, 3), Epsilon: 3, Seed: 4},
			req: compman.Request{Program: &compman.ProgramSpec{Type: "logreg", FeatureDims: 2, LabelCol: 2, Iters: 20}, Mode: "loose",
				OutputRanges: wireRanges(repeat(Range{Lo: -5, Hi: 5}, 3)), Epsilon: 3, Seed: 4},
		},
		{
			name: "helper with a linear translate",
			q:    Query{Program: Mean{Col: 3}, Mode: Helper, Translate: identity, Epsilon: 2, Seed: 5},
			req: compman.Request{Program: &compman.ProgramSpec{Type: "mean", Col: 3}, Mode: "helper",
				Translate: &compman.TranslateSpec{InputDim: []int{3}, Scale: []float64{1}, Offset: []float64{0}}, Epsilon: 2, Seed: 5},
			embeddedUncachable: true,
		},
		{
			name: "accuracy goal on the aged sample",
			q:    Query{Program: Mean{Col: 3}, OutputRanges: age, Accuracy: &AccuracyGoal{Rho: 0.9, Confidence: 0.9}, Seed: 6},
			req: compman.Request{Program: &compman.ProgramSpec{Type: "mean", Col: 3}, OutputRanges: ageWire,
				Accuracy: &compman.AccuracySpec{Rho: 0.9, Confidence: 0.9}, Seed: 6},
		},
		{
			name: "auto block size",
			q:    Query{Program: Mean{Col: 3}, OutputRanges: age, Epsilon: 1, AutoBlockSize: true, Seed: 7},
			req:  compman.Request{Program: &compman.ProgramSpec{Type: "mean", Col: 3}, OutputRanges: ageWire, Epsilon: 1, AutoBlockSize: true, Seed: 7},
		},
		{
			name: "user level",
			q:    Query{Program: Mean{Col: 3}, OutputRanges: age, Epsilon: 1, UserLevel: true, UserColumn: 4, Seed: 8},
			req:  compman.Request{Program: &compman.ProgramSpec{Type: "mean", Col: 3}, OutputRanges: ageWire, Epsilon: 1, UserLevel: true, UserColumn: 4, Seed: 8},
		},
		{
			name: "resampling",
			q:    Query{Program: Variance{Col: 3}, OutputRanges: []Range{{Lo: 0, Hi: 400}}, Epsilon: 1, BlockSize: 100, Gamma: 3, Seed: 9},
			req: compman.Request{Program: &compman.ProgramSpec{Type: "variance", Col: 3}, OutputRanges: []compman.RangeSpec{{Lo: 0, Hi: 400}},
				Epsilon: 1, BlockSize: 100, Gamma: 3, Seed: 9},
		},
	}

	p := New()
	if err := p.Register("ds", pipelineRows(), pipeCols, DatasetOptions{
		TotalBudget: pipeBudget, Ranges: pipeRanges, AgedFraction: 0.1, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	p.EnableCache(64, 0)
	served := map[string]*compman.Client{"local": servedHost(t, 0), "2 workers": servedHost(t, 2)}
	ctx := context.Background()

	remaining := func(t *testing.T) float64 {
		t.Helper()
		rem, err := p.RemainingBudget("ds")
		if err != nil {
			t.Fatal(err)
		}
		for host, c := range served {
			if got, err := c.RemainingBudget("ds"); err != nil || got != rem {
				t.Fatalf("remaining budget: embedded %v, %s %v (err %v)", rem, host, got, err)
			}
		}
		return rem
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.q.Dataset, row.req.Dataset = "ds", "ds"
			before := remaining(t)
			res, err := p.Run(ctx, row.q)
			if err != nil {
				t.Fatal(err)
			}
			charged := before - mustRemaining(t, p)
			if res.CacheHit || !(charged > 0) {
				t.Fatalf("cold embedded run: hit=%v charged=%v", res.CacheHit, charged)
			}
			for host, c := range served {
				resp, err := c.Query(&row.req)
				if err != nil {
					t.Fatalf("%s: %v", host, err)
				}
				if !sameBits(resp.Output, res.Output) {
					t.Errorf("%s output %v, embedded %v", host, resp.Output, res.Output)
				}
				if len(resp.EffectiveRanges) != len(res.EffectiveRanges) {
					t.Fatalf("%s effective ranges %v, embedded %v", host, resp.EffectiveRanges, res.EffectiveRanges)
				}
				for d, r := range res.EffectiveRanges {
					if !sameBits([]float64{r.Lo, r.Hi}, []float64{resp.EffectiveRanges[d].Lo, resp.EffectiveRanges[d].Hi}) {
						t.Errorf("%s effective range %d = %v, embedded %v", host, d, resp.EffectiveRanges[d], r)
					}
				}
				if resp.NumBlocks != res.NumBlocks || resp.BlockSize != res.BlockSize {
					t.Errorf("%s geometry %d×%d, embedded %d×%d", host, resp.NumBlocks, resp.BlockSize, res.NumBlocks, res.BlockSize)
				}
				if resp.CacheHit || resp.EpsilonCharged != res.EpsilonSpent || resp.EpsilonSpent != res.EpsilonSpent {
					t.Errorf("%s hit=%v charged %v spent %v, embedded spent %v", host, resp.CacheHit, resp.EpsilonCharged, resp.EpsilonSpent, res.EpsilonSpent)
				}
			}
			after := remaining(t)
			if math.Abs(before-after-res.EpsilonSpent) > 1e-9 {
				t.Errorf("balance moved %v for a release that spent %v", before-after, res.EpsilonSpent)
			}

			// The repeat is the same release again, free.
			again, err := p.Run(ctx, row.q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(again.Output, res.Output) {
				t.Errorf("embedded repeat released %v, first %v", again.Output, res.Output)
			}
			if again.CacheHit == row.embeddedUncachable {
				t.Errorf("embedded repeat hit=%v, want %v", again.CacheHit, !row.embeddedUncachable)
			}
			for host, c := range served {
				resp, err := c.Query(&row.req)
				if err != nil {
					t.Fatalf("%s repeat: %v", host, err)
				}
				if !resp.CacheHit || resp.EpsilonCharged != 0 || !sameBits(resp.Output, res.Output) {
					t.Errorf("%s repeat: hit=%v charged=%v output %v, want a free re-release of %v",
						host, resp.CacheHit, resp.EpsilonCharged, resp.Output, res.Output)
				}
			}
			if row.embeddedUncachable {
				// The embedded repeat ran (and paid) again; bring the served
				// books level so later rows can keep comparing balances.
				fresh := row.req
				fresh.Seed += 1000
				for host, c := range served {
					if _, err := c.Query(&fresh); err != nil {
						t.Fatalf("%s: %v", host, err)
					}
				}
			}
			if got := remaining(t); !row.embeddedUncachable && got != after {
				t.Errorf("repeat moved the balance: %v -> %v", after, got)
			}
		})
	}

	t.Run("three-member session", func(t *testing.T) {
		before := remaining(t)
		s := p.NewSession("ds", 3)
		spec := &compman.SessionSpec{TotalEpsilon: 3}
		for i, m := range []struct {
			prog   Program
			typ    string
			ranges []Range
		}{
			{Mean{Col: 3}, "mean", age},
			{Variance{Col: 3}, "variance", []Range{{Lo: 0, Hi: 400}}},
			{Median{Col: 3}, "median", age},
		} {
			if err := s.Add(Query{Program: m.prog, OutputRanges: m.ranges, Seed: int64(20 + i), Gamma: i + 1, BlockSize: 80}); err != nil {
				t.Fatal(err)
			}
			spec.Queries = append(spec.Queries, compman.SessionQuery{
				Program: compman.ProgramSpec{Type: m.typ, Col: 3}, OutputRanges: wireRanges(m.ranges),
				Seed: int64(20 + i), Gamma: i + 1, BlockSize: 80,
			})
		}
		for round, wantHit := range []bool{false, true} {
			results, err := s.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for host, c := range served {
				got, err := c.Session("ds", spec)
				if err != nil {
					t.Fatalf("%s: %v", host, err)
				}
				for i, r := range results {
					if r.CacheHit != wantHit {
						t.Errorf("round %d member %d: embedded hit=%v", round, i, r.CacheHit)
					}
					if !sameBits(got[i].Output, r.Output) || got[i].EpsilonSpent != r.EpsilonSpent {
						t.Errorf("round %d member %d: %s released %v at ε=%v, embedded %v at ε=%v",
							round, i, host, got[i].Output, got[i].EpsilonSpent, r.Output, r.EpsilonSpent)
					}
				}
			}
			if after := remaining(t); math.Abs(before-after-3) > 1e-9 {
				t.Errorf("round %d: session moved the balance %v, want exactly one charge of 3", round, before-after)
			}
		}
	})
}

func mustRemaining(t *testing.T, p *Platform) float64 {
	t.Helper()
	rem, err := p.RemainingBudget("ds")
	if err != nil {
		t.Fatal(err)
	}
	return rem
}

// TestSessionMemberHonoursUserLevel pins the privacy bug the duplicated
// session runner had: it hashed a member's UserLevel flag into the cache key
// but ran the member at record level. The probe program reports the
// fraction of its block's users that arrived with all four of their rows —
// 1 under user-level partitioning, near 0 under record-level.
func TestSessionMemberHonoursUserLevel(t *testing.T) {
	rows := make([][]float64, 2000)
	for i := range rows {
		rows[i] = []float64{float64(i / 4)}
	}
	p := New()
	if err := p.Register("users", rows, []string{"user"}, DatasetOptions{TotalBudget: 1e6}); err != nil {
		t.Fatal(err)
	}
	wholeUsers := ProgramFunc{ProgName: "whole-users", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		seen := map[float64]int{}
		for _, r := range block {
			seen[r[0]]++
		}
		whole := 0
		for _, n := range seen {
			if n == 4 {
				whole++
			}
		}
		return mathutil.Vec{float64(whole) / float64(len(seen))}, nil
	}}
	s := p.NewSession("users", 1e5)
	for _, userLevel := range []bool{true, false} {
		if err := s.Add(Query{Program: wholeUsers, OutputRanges: []Range{{Lo: 0, Hi: 1}}, UserLevel: userLevel, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Output[0]; got < 0.99 {
		t.Errorf("user-level member saw whole users in %.2f of its blocks' users; it ran at record level", got)
	}
	if got := res[1].Output[0]; got > 0.5 {
		t.Errorf("record-level member saw whole users %.2f of the time; the probe cannot tell the modes apart", got)
	}
}
