package main

import (
	"container/list"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gupt/internal/analytics"
	"gupt/internal/compman"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/workload"
)

const (
	datasetName = "bench"
	// epsPerQuery is the ε every query asks for; with one value the four
	// books add the same float in the same order and must agree exactly.
	epsPerQuery = 0.05
	baseRows    = 20000
	// catalogueSize and the Zipf exponent shape served_repeat: four times
	// the cache's 1024 entries, so hits, fills and evictions all occur.
	catalogueSize = 4096
	zipfExponent  = 1.1
	cacheEntries  = 1024
)

// expectation is the outcome every operation of a workload must have;
// anything else counts as a failed operation.
type expectation int

const (
	expectCold    expectation = iota // answered, charged epsPerQuery, never a cache hit
	expectRepeat                     // answered; charged epsPerQuery on a miss, 0 on a hit
	expectRefused                    // refused for quota at ε = 0
)

// queryKind selects one of the three programs the workloads use.
type queryKind int

const (
	kindMean queryKind = iota
	kindKMeans
	kindLogReg
)

// query is one generated operation: the wire request (the embedded path
// converts it) plus what the checks need to know about it.
type query struct {
	kind      queryKind
	req       compman.Request
	catalogue int // index in the served_repeat catalogue; -1 elsewhere
}

// workloadDef is one row of the benchmark's workload matrix.
type workloadDef struct {
	name string
	why  string

	hosted  bool // hosted profile (guptd defaults) instead of the embedded Platform
	workers int  // in-process gupt-workers; 0 executes blocks in the server
	lifeSci bool // LifeSci table and the k-means/logreg mix instead of census mean
	zipf    bool // draw queries from the repeat catalogue
	expect  expectation

	clients  int
	roundOps int // operations per timed round at -scale 1
	warmOps  int // operations of the discarded warm-up round
	// blocks fixes the block count (rows/blocks rows per block); 0 keeps
	// the engine's default n^0.6 block size.
	blocks        int
	quantumMillis int64
}

// workloads is the fixed matrix. Round sizes put a round near one second on
// the 2-core reference box, so a 10 s run takes its medians over 7–10 rounds.
// The CPU-bound workloads use one client: the engine already runs blocks
// GOMAXPROCS-wide, so a second client adds no throughput on two cores, only
// scheduler contention that made every timing twice as noisy from run to run.
var workloads = []*workloadDef{
	{
		name: "embedded_mean", clients: 1, roundOps: 100, warmOps: 200,
		why: "library path with no wire, ledger, tenancy or audit: the floor for every served workload",
	},
	{
		name: "served_mean", hosted: true, clients: 2, roundOps: 100, warmOps: cacheEntries + 76,
		why: "all-distinct mean queries through guptd defaults: per-query fixed overhead dominates, cache is write-only",
	},
	{
		name: "served_ml", hosted: true, lifeSci: true, clients: 1, roundOps: 12, warmOps: 12,
		why: "k-means and loose-mode logreg blocks: CPU-bound in analytics/sandbox/core, front door under 10%",
	},
	{
		name: "served_repeat", hosted: true, zipf: true, expect: expectRepeat, clients: 2, roundOps: 150, warmOps: cacheEntries,
		why: "Zipf repeats over 4x the cache: qcache read-mostly, ledger writes budget-neutral cache_hit records",
	},
	{
		name: "refused_quota", hosted: true, expect: expectRefused, clients: 2, roundOps: 400, warmOps: 400,
		why: "tenant quota exhausted: every op is a zero-epsilon refusal, front door only, no core and no charge",
	},
	{
		name: "fanout_quantum", hosted: true, workers: 2, clients: 1, roundOps: 8, warmOps: 4, blocks: 40, quantumMillis: 5,
		why: "40 quantum-padded blocks over 4 worker slots: sleep-bound, measures dispatcher and slot utilisation",
	},
	{
		name: "fanout_cpu", hosted: true, workers: 2, lifeSci: true, clients: 1, roundOps: 12, warmOps: 12,
		why: "the served_ml mix with every block crossing the work wire: fan-out overhead per block, no quantum",
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rows is the table size at the given scale; tests shrink it, but never
// below what keeps 40 non-trivial blocks.
func scaledRows(scale float64) int {
	n := int(math.Round(baseRows * scale))
	if n < 2000 {
		n = 2000
	}
	return n
}

func scaledOps(ops int, scale float64) int {
	n := int(math.Round(float64(ops) * scale))
	if n < 4 {
		n = 4
	}
	return n
}

// table generates the workload's private dataset from the run seed.
func (w *workloadDef) table(seed int64, rows int) *dataset.Table {
	if w.lifeSci {
		return workload.LifeSci(seed, rows)
	}
	return workload.CensusIncome(seed, rows)
}

// blockSize is the request's explicit block size (0 = engine default).
func (w *workloadDef) blockSize(rows int) int {
	if w.blocks == 0 {
		return 0
	}
	return rows / w.blocks
}

// effectiveBlockSize is the block size the engine ends up using.
func (w *workloadDef) effectiveBlockSize(rows int) int {
	if bs := w.blockSize(rows); bs != 0 {
		return bs
	}
	return core.DefaultBlockSize(rows)
}

// numBlocks is the block count every answered query must report.
func (w *workloadDef) numBlocks(rows int) int { return rows / w.effectiveBlockSize(rows) }

// The three programs. The specs go over the wire; resolveProgram is the
// bench-side twin of the server's unexported resolver, used by the embedded
// path, the truth computation and the traced replay.
var (
	meanSpec   = compman.ProgramSpec{Type: "mean", Col: 0}
	kmeansSpec = compman.ProgramSpec{Type: "kmeans", K: workload.LifeSciClusters, FeatureDims: workload.LifeSciDims, Iters: 20, Seed: 7}
	logregSpec = compman.ProgramSpec{Type: "logreg", FeatureDims: workload.LifeSciDims, LabelCol: workload.LifeSciDims, Iters: 50, LearnRate: 0.5}
)

func resolveProgram(ps *compman.ProgramSpec) analytics.Program {
	switch ps.Type {
	case "mean":
		return analytics.Mean{Col: ps.Col}
	case "kmeans":
		return analytics.KMeans{K: ps.K, FeatureDims: ps.FeatureDims, Iters: ps.Iters, Seed: ps.Seed}
	case "logreg":
		return analytics.LogisticRegression{FeatureDims: ps.FeatureDims, LabelCol: ps.LabelCol, Iters: ps.Iters, LearnRate: ps.LearnRate}
	}
	panic("bench: no program for spec type " + ps.Type)
}

// dpRanges converts wire ranges to the engine's (and, by alias, the embedded
// API's) range type.
func dpRanges(rs []compman.RangeSpec) []dp.Range {
	out := make([]dp.Range, len(rs))
	for i, r := range rs {
		out[i] = dp.Range{Lo: r.Lo, Hi: r.Hi}
	}
	return out
}

// rawRows views table rows as the plain slices the embedded API and the work
// wire take; the rows are shared, not copied.
func rawRows(rows []mathutil.Vec) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

func uniformRanges(lo, hi float64, dims int) []compman.RangeSpec {
	out := make([]compman.RangeSpec, dims)
	for i := range out {
		out[i] = compman.RangeSpec{Lo: lo, Hi: hi}
	}
	return out
}

// Output ranges per program: tight for mean and k-means; the logreg range
// is the analyst's loose bound, tightened privately by the engine.
var (
	meanRanges   = uniformRanges(0, 150, 1)
	kmeansRanges = uniformRanges(-10, 10, workload.LifeSciClusters*workload.LifeSciDims)
	logregRanges = uniformRanges(-6, 6, workload.LifeSciDims+1)
)

// generator produces a workload's operations as a pure function of the run
// seed: distinct query seeds for the cold workloads, a seed-started walk
// through the Zipf law over the catalogue for served_repeat.
type generator struct {
	w     *workloadDef
	rows  int
	base  int64     // first query seed; catalogue entry i uses base+i
	fresh int64     // next never-used query seed
	n     int       // operations generated, for the 2:1 ML mix
	cdf   []float64 // Zipf CDF over the catalogue
	u     float64   // position of the low-discrepancy walk through the CDF
}

func newGenerator(w *workloadDef, seed int64, rows int) *generator {
	g := &generator{w: w, rows: rows, base: seed * 1_000_003, u: rand.New(rand.NewSource(seed)).Float64()}
	g.fresh = g.base + catalogueSize
	if w.zipf {
		g.cdf = make([]float64, catalogueSize)
		var sum float64
		for i := range g.cdf {
			sum += 1 / math.Pow(float64(i+1), zipfExponent)
			g.cdf[i] = sum
		}
		for i := range g.cdf {
			g.cdf[i] /= sum
		}
	}
	return g
}

func (g *generator) build(kind queryKind, seed int64, catalogue int) *query {
	req := compman.Request{
		Dataset:       datasetName,
		Epsilon:       epsPerQuery,
		BlockSize:     g.w.blockSize(g.rows),
		Seed:          seed,
		QuantumMillis: g.w.quantumMillis,
	}
	switch kind {
	case kindMean:
		spec := meanSpec
		req.Program, req.OutputRanges = &spec, meanRanges
	case kindKMeans:
		spec := kmeansSpec
		req.Program, req.OutputRanges = &spec, kmeansRanges
	case kindLogReg:
		spec := logregSpec
		req.Program, req.OutputRanges, req.Mode = &spec, logregRanges, "loose"
	}
	return &query{kind: kind, req: req, catalogue: catalogue}
}

// draw takes the next catalogue index: a golden-ratio walk through the Zipf
// CDF instead of independent draws. The marginal distribution is the same
// Zipf law, but any window of operations holds head and tail entries in the
// law's proportions, so the hit ratio does not depend on the luck of the seed.
func (g *generator) draw() int {
	g.u += math.Phi - 1
	if g.u >= 1 {
		g.u--
	}
	return min(sort.SearchFloat64s(g.cdf, g.u), catalogueSize-1)
}

// next generates the next timed operation.
func (g *generator) next() *query {
	g.n++
	if g.w.zipf {
		return g.catalogueQuery(g.draw())
	}
	kind := kindMean
	if g.w.lifeSci {
		// Two k-means to one logreg: with an even split the median
		// latency would sit on the boundary between the two programs'
		// modes and flip between them from run to run.
		kind = kindKMeans
		if g.n%3 == 0 {
			kind = kindLogReg
		}
	}
	g.fresh++
	return g.build(kind, g.fresh, -1)
}

func (g *generator) catalogueQuery(i int) *query {
	return g.build(kindMean, g.base+int64(i), i)
}

// batch generates n timed operations.
func (g *generator) batch(n int) []*query {
	out := make([]*query, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// warmup generates the discarded warm-up round. For served_repeat it puts
// the server's n-entry LRU cache straight into its steady state: the walk is
// run ahead through a simulated LRU of the same size, and the warm-up then
// requests exactly the entries left resident, least recently used first. An
// LRU under a Zipf law takes tens of thousands of requests to settle; without
// this the miss ratio would climb all through the timed rounds.
func (g *generator) warmup(n int) []*query {
	if !g.w.zipf {
		return g.batch(n)
	}
	order := list.New() // front = least recently used
	resident := map[int]*list.Element{}
	for step := 0; step < 32*n; step++ {
		i := g.draw()
		if e, ok := resident[i]; ok {
			order.MoveToBack(e)
			continue
		}
		resident[i] = order.PushBack(i)
		if order.Len() > n {
			delete(resident, order.Remove(order.Front()).(int))
		}
	}
	out := make([]*query, 0, n)
	for e := order.Front(); e != nil; e = e.Next() {
		out = append(out, g.catalogueQuery(e.Value.(int)))
	}
	return out
}

// truth is the non-private answer of one program on the full table and the
// output-range widths that normalise the released answer's error.
type truth struct {
	value mathutil.Vec
	width []float64
}

// computeTruths runs each program the workload uses once on the whole
// table, outside any chamber: the paper's utility baseline.
func computeTruths(w *workloadDef, rows []mathutil.Vec) (map[queryKind]*truth, error) {
	type entry struct {
		kind   queryKind
		spec   compman.ProgramSpec
		ranges []compman.RangeSpec
	}
	entries := []entry{{kindMean, meanSpec, meanRanges}}
	if w.lifeSci {
		entries = []entry{{kindKMeans, kmeansSpec, kmeansRanges}, {kindLogReg, logregSpec, logregRanges}}
	}
	out := make(map[queryKind]*truth, len(entries))
	for _, e := range entries {
		v, err := resolveProgram(&e.spec).Run(rows)
		if err != nil {
			return nil, fmt.Errorf("non-private %s on the full table: %w", e.spec.Type, err)
		}
		t := &truth{value: v, width: make([]float64, len(e.ranges))}
		for i, r := range e.ranges {
			t.width[i] = r.Hi - r.Lo
		}
		out[e.kind] = t
	}
	return out, nil
}

// answerErr is the mean over output dimensions of |released − truth| as a
// share of the output-range width.
func (t *truth) answerErr(released []float64) float64 {
	var sum float64
	for d, v := range released {
		sum += math.Abs(v-t.value[d]) / t.width[d]
	}
	return sum / float64(len(released))
}
