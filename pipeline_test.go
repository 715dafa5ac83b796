package gupt

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
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
// locally or fanned out over in-process workers, with the cache on. wrap,
// when non-nil, wraps the in-process chambers of whichever side runs the
// programs. The registered private table comes back for integrity checks.
func servedHost(t *testing.T, workers int, wrap func(sandbox.Chamber) sandbox.Chamber) (*compman.Client, *dataset.Table) {
	t.Helper()
	cfg := compman.ServerConfig{CacheEntries: 64}
	if workers == 0 {
		cfg.ChamberWrapper = wrap
	}
	for i := 0; i < workers; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		wk := compman.NewWorker(compman.WorkerConfig{ChamberWrapper: wrap})
		go wk.Serve(l) // returns when Close runs
		t.Cleanup(func() { wk.Close() })
		cfg.WorkerAddrs = append(cfg.WorkerAddrs, l.Addr().String())
	}
	tbl := dataset.New(pipeCols)
	for _, r := range pipelineRows() {
		if err := tbl.Append(mathutil.Vec(r)); err != nil {
			t.Fatal(err)
		}
	}
	reg := dataset.NewRegistry()
	registered, err := reg.Register("ds", tbl, dataset.RegisterOptions{
		TotalBudget: pipeBudget, Ranges: pipeRanges, AgedFraction: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := compman.NewServer(reg, cfg)
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
	return c, registered.Private
}

// embeddedHost is the same table behind a gupt.Platform.
func embeddedHost(t *testing.T) (*Platform, *dataset.Table) {
	t.Helper()
	p := New()
	if err := p.Register("ds", pipelineRows(), pipeCols, DatasetOptions{
		TotalBudget: pipeBudget, Ranges: pipeRanges, AgedFraction: 0.1, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	registered, err := p.stage.Registry.Lookup("ds")
	if err != nil {
		t.Fatal(err)
	}
	return p, registered.Private
}

// tableHash digests every value of every registered row in order, with row
// boundaries, so zeroed, reordered, resized or swapped rows all show.
func tableHash(tbl *dataset.Table) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range tbl.View() {
		for _, v := range r {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
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

	p, embeddedTable := embeddedHost(t)
	p.EnableCache(64, 0)
	tables := map[string]*dataset.Table{"embedded": embeddedTable}
	served := map[string]*compman.Client{}
	for host, workers := range map[string]int{"local": 0, "2 workers": 2} {
		served[host], tables[host] = servedHost(t, workers, nil)
	}
	registeredHash := tableHash(embeddedTable)
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

	// Every query above read the registered rows in place; none may have
	// changed them.
	for host, tbl := range tables {
		if got := tableHash(tbl); got != registeredHash {
			t.Errorf("%s table hashes %x after the whole table ran, %x at registration", host, got, registeredHash)
		}
	}
}

// vandal is the state-attack program: it computes its inner program's
// honest answer, then zeroes every row of its block and reverses the block.
// If any of that reached storage another block or a later query reads, an
// answer or the table hash changes.
type vandal struct{ Program }

func (v vandal) Name() string { return "vandal:" + v.Program.Name() }
func (v vandal) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	out, err := v.Program.Run(block)
	for i, j := 0, len(block)-1; i < j; i, j = i+1, j-1 {
		block[i], block[j] = block[j], block[i]
	}
	for _, r := range block {
		for k := range r {
			r[k] = 0
		}
	}
	return out, err
}

// TestMutatingProgramCannotReachTheTable is the invariant the shared
// read-only table view rests on: queries read the registered rows in place,
// so the one private copy per (record, block) must stand between every
// program and them — in the in-process chamber (embedded and served) and in
// the worker's decoded frame. (internal/query's
// TestUndeclaredChamberCannotReachTheTable covers sandbox.Rows' copy for
// chambers that are not RowChambers.) γ = 2 puts every record in two
// blocks.
func TestMutatingProgramCannotReachTheTable(t *testing.T) {
	ctx := context.Background()
	age := []Range{{Lo: 0, Hi: 150}}
	query := func(seed int64) Query {
		return Query{Dataset: "ds", Program: Mean{Col: 3}, OutputRanges: age, Epsilon: 1, BlockSize: 100, Gamma: 2, Seed: seed}
	}
	request := func(seed int64) *compman.Request {
		return &compman.Request{Dataset: "ds", Program: &compman.ProgramSpec{Type: "mean", Col: 3},
			OutputRanges: wireRanges(age), Epsilon: 1, BlockSize: 100, Gamma: 2, Seed: seed}
	}

	// What a platform no vandal ever touched releases for each seed.
	fresh, freshTable := embeddedHost(t)
	registeredHash := tableHash(freshTable)
	want := map[int64][]float64{}
	for seed := int64(31); seed <= 34; seed++ {
		res, err := fresh.Run(ctx, query(seed))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res.Output
	}

	type host struct {
		name  string
		table *dataset.Table
		run   func(seed int64, attack bool) ([]float64, error)
	}
	embedded := func(name string) host {
		p, tbl := embeddedHost(t)
		return host{name, tbl, func(seed int64, attack bool) ([]float64, error) {
			q := query(seed)
			if attack {
				q.Program = vandal{q.Program}
			}
			res, err := p.Run(ctx, q)
			if err != nil {
				return nil, err
			}
			return res.Output, nil
		}}
	}
	// Served programs come from the wire's fixed vocabulary, so the attack
	// is armed by swapping the vandal into the in-process chamber the
	// server (or worker) built, keeping everything else about it.
	served := func(name string, workers int) host {
		var armed atomic.Bool
		c, tbl := servedHost(t, workers, func(inner sandbox.Chamber) sandbox.Chamber {
			if !armed.Load() {
				return inner
			}
			ch := *inner.(*sandbox.InProcess)
			ch.Program = vandal{ch.Program}
			return &ch
		})
		return host{name, tbl, func(seed int64, attack bool) ([]float64, error) {
			armed.Store(attack)
			resp, err := c.Query(request(seed))
			if err != nil {
				return nil, err
			}
			return resp.Output, nil
		}}
	}
	hosts := []host{
		embedded("embedded"),
		served("local server", 0),
		served("2-worker fan-out", 2),
	}

	for _, h := range hosts {
		t.Run(h.name, func(t *testing.T) {
			check := func(seed int64, attack bool) {
				got, err := h.run(seed, attack)
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
				} else if !sameBits(got, want[seed]) {
					t.Errorf("seed %d (attack=%v) released %v, an untouched platform %v", seed, attack, got, want[seed])
				}
			}
			if got := tableHash(h.table); got != registeredHash {
				t.Fatalf("table hashes %x before any query, the reference %x", got, registeredHash)
			}
			// The vandal's own answer already proves blocks sharing a record
			// did not share storage; the honest query after it, that later
			// queries did not either.
			check(31, true)
			check(32, false)
			// Two attacks at once: under -race, any write that reached shared
			// rows races with the other query's reads.
			var wg sync.WaitGroup
			for _, seed := range []int64{33, 34} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					check(seed, true)
				}()
			}
			wg.Wait()
			if got := tableHash(h.table); got != registeredHash {
				t.Errorf("table hashes %x after the attacks, %x at registration", got, registeredHash)
			}
		})
	}
}

// TestAliasedOutputReleasedIntact covers the one way recycled block storage
// could reach an answer: a program whose output vector is a slice of its
// block. The chamber copies the output out before the storage moves on to
// the next block, so every host must release the bits a program returning
// a private copy of the same cell releases. (The engine and the worker copy
// an output onward as soon as Execute returns, so here a missed copy shows
// only when a parallel block wins that race; sandbox's
// TestAliasedOutputSurvivesReuse is the deterministic form.)
func TestAliasedOutputReleasedIntact(t *testing.T) {
	ctx := context.Background()
	age := []Range{{Lo: 0, Hi: 150}}
	aliased := ProgramFunc{ProgName: "first-age", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		return block[0][3:4], nil
	}}
	copied := ProgramFunc{ProgName: "first-age", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		return mathutil.Vec{block[0][3]}, nil
	}}
	query := func(prog Program, seed int64) Query {
		return Query{Dataset: "ds", Program: prog, OutputRanges: age, Epsilon: 1, BlockSize: 100, Seed: seed}
	}
	seeds := []int64{41, 42, 43}
	reference, _ := embeddedHost(t)
	want := map[int64][]float64{}
	for _, seed := range seeds {
		res, err := reference.Run(ctx, query(copied, seed))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res.Output
	}

	embedded, _ := embeddedHost(t)
	hosts := map[string]func(seed int64) ([]float64, error){
		"embedded": func(seed int64) ([]float64, error) {
			res, err := embedded.Run(ctx, query(aliased, seed))
			if err != nil {
				return nil, err
			}
			return res.Output, nil
		},
	}
	// Served programs come from the wire's fixed vocabulary: swap the
	// aliasing program into the in-process chamber the host built.
	for name, workers := range map[string]int{"local server": 0, "2-worker fan-out": 2} {
		c, _ := servedHost(t, workers, func(inner sandbox.Chamber) sandbox.Chamber {
			ch := *inner.(*sandbox.InProcess)
			ch.Program = aliased
			return &ch
		})
		hosts[name] = func(seed int64) ([]float64, error) {
			resp, err := c.Query(&compman.Request{Dataset: "ds", Program: &compman.ProgramSpec{Type: "mean", Col: 3},
				OutputRanges: wireRanges(age), Epsilon: 1, BlockSize: 100, Seed: seed})
			if err != nil {
				return nil, err
			}
			return resp.Output, nil
		}
	}
	for name, run := range hosts {
		for _, seed := range seeds {
			got, err := run(seed)
			if err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			} else if !sameBits(got, want[seed]) {
				t.Errorf("%s seed %d released %v for the aliased output, %v for the copied one", name, seed, got, want[seed])
			}
		}
	}
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
