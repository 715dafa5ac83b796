package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"gupt/internal/compman"
	"gupt/internal/dp"
)

// runConfig is one workload run's input.
type runConfig struct {
	w       *workloadDef
	seed    int64
	seconds float64 // how long the timed rounds measure
	scale   float64 // shrinks table and round sizes; 1 in every reported run
	trace   bool
	tmpRoot string // where stacks keep their ledger and audit files
}

func (c *runConfig) rows() int { return scaledRows(c.scale) }

// runResult is what one workload run reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rounds    int                `json:"rounds"`
	Metrics   metricSet          `json:"metrics"`
	Spread    map[string]float64 `json:"spread,omitempty"` // p25–p75 across rounds ÷ median
	// PerRound keeps each round's value of the round-based metrics, in
	// round order, so a surprising figure can be looked at.
	PerRound map[string][]float64 `json:"perRound,omitempty"`
	// Problems lists every violated output check; Correct is false when
	// it is non-empty.
	Problems []string `json:"problems,omitempty"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// round is the measurement of one batch of operations.
type round struct {
	latMs     []float64 // per-operation client-observed latency
	wall      time.Duration
	cpu       time.Duration
	allocKiB  float64
	failed    int
	charged   float64   // Σ ε the clients were charged
	answerErr []float64 // per answered operation
	hits      int
}

// checker validates outcomes against the workload's expectation and keeps
// the state the checks need across rounds.
type checker struct {
	w      *workloadDef
	blocks int
	truths map[queryKind]*truth
	// released remembers every catalogue entry's answer: a repeat, hit or
	// recomputed miss, must return the byte-identical release.
	released map[int][]float64
	res      *runResult
}

// check classifies one outcome; a non-empty return is a failed operation.
func (ck *checker) check(q *query, o outcome) string {
	if ck.w.expect == expectRefused {
		var qe *compman.QueryError
		switch {
		case o.err == nil:
			return "answered, expected a quota refusal"
		case !errors.As(o.err, &qe) || !strings.Contains(qe.Msg, dp.ErrBudgetExhausted.Error()):
			return "unexpected error: " + o.err.Error()
		case o.charged != 0:
			return fmt.Sprintf("refusal charged ε=%v", o.charged)
		}
		return ""
	}
	if o.err != nil {
		return "unexpected error: " + o.err.Error()
	}
	want := epsPerQuery
	if o.hit {
		if ck.w.expect != expectRepeat {
			return "cache hit on a distinct query"
		}
		want = 0
	}
	if o.charged != want {
		return fmt.Sprintf("charged ε=%v, expected %v", o.charged, want)
	}
	if o.blocks != ck.blocks {
		return fmt.Sprintf("%d blocks, expected %d", o.blocks, ck.blocks)
	}
	if len(o.output) != len(ck.truths[q.kind].value) {
		return fmt.Sprintf("%d output dims, expected %d", len(o.output), len(ck.truths[q.kind].value))
	}
	for _, v := range o.output {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "non-finite output"
		}
	}
	if q.catalogue >= 0 {
		prev, ok := ck.released[q.catalogue]
		if !ok {
			ck.released[q.catalogue] = o.output
		} else if !sameBits(prev, o.output) {
			return "repeat query returned a different release"
		}
	}
	return ""
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

// runRound issues ops in a closed loop — client c sends ops c, c+clients, …
// one at a time — and measures wall time, process CPU and allocation around
// the whole batch. Outcomes are checked after the clock stops.
func runRound(s *stack, ck *checker, ops []*query) round {
	clients := s.w.clients
	outcomes := make([]outcome, len(ops))
	lat := make([]time.Duration, len(ops))
	var wg sync.WaitGroup
	before := readUsage()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += clients {
				t0 := time.Now()
				outcomes[i] = s.issue(c, ops[i])
				lat[i] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	r := round{wall: time.Since(start)}
	after := readUsage()
	r.cpu = after.cpu - before.cpu
	r.allocKiB = float64(after.totalAlloc-before.totalAlloc) / 1024

	r.latMs = make([]float64, len(ops))
	for i, q := range ops {
		r.latMs[i] = millis(lat[i])
		o := outcomes[i]
		r.charged += o.charged
		if why := ck.check(q, o); why != "" {
			r.failed++
			ck.res.problem("op failed: %s", why)
			continue
		}
		if o.hit {
			r.hits++
		}
		if o.output != nil {
			r.answerErr = append(r.answerErr, ck.truths[q.kind].answerErr(o.output))
		}
	}
	s.seen += r.charged
	return r
}

// warmUp runs the discarded warm-up round.
func warmUp(cfg *runConfig, s *stack, ck *checker, g *generator) {
	warm := runRound(s, ck, g.warmup(scaledOps(cfg.w.warmOps, cfg.scale)))
	if warm.failed > 0 {
		ck.res.problem("%d warm-up operations failed", warm.failed)
	}
}

// timedRounds runs fixed-size rounds until seconds of measurement have
// elapsed (at least three rounds, so a quantile and a spread exist). between,
// when set, runs in every gap between two rounds, outside any measurement.
func timedRounds(cfg *runConfig, s *stack, ck *checker, g *generator, seconds float64, between func()) []round {
	var rounds []round
	n := scaledOps(cfg.w.roundOps, cfg.scale)
	limit := time.Duration(seconds * float64(time.Second))
	var measured time.Duration
	for measured < limit || len(rounds) < 3 {
		if between != nil && len(rounds) > 0 {
			between()
		}
		r := runRound(s, ck, g.batch(n))
		measured += r.wall
		rounds = append(rounds, r)
	}
	return rounds
}

// setUp brings one instance of the system up and returns how long it took.
func setUp(cfg *runConfig) (*stack, float64, error) {
	start := time.Now()
	s, err := newStack(cfg.w, cfg.seed, cfg.rows(), cfg.tmpRoot)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, time.Since(start).Seconds(), nil
}

// runWorkload is one complete run of one workload: pre-flight, set-up,
// warm-up, timed rounds, output checks; plus the traced pass when asked.
func runWorkload(cfg *runConfig) (*runResult, *tracePass, error) {
	w := cfg.w
	res := &runResult{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Correct: true}
	if err := preflight(cfg.seed); err != nil {
		res.problem("pre-flight: %v", err)
	}

	s, firstSetup, err := setUp(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	truths, err := computeTruths(w, s.rows)
	if err != nil {
		return nil, nil, err
	}
	g := newGenerator(w, cfg.seed, cfg.rows())
	ck := &checker{w: w, blocks: w.numBlocks(cfg.rows()), truths: truths, released: map[int][]float64{}, res: res}
	if w.expect == expectRefused {
		if err := s.exhaustQuota(g); err != nil {
			return nil, nil, err
		}
	}

	if cfg.trace {
		tp, err := tracedRun(cfg, s, ck, g, res)
		if err != nil {
			return nil, nil, err
		}
		if err := s.checkBooks(); err != nil {
			res.problem("%v", err)
		}
		return res, tp, nil
	}

	// Set-up is timed again in every gap between two rounds — a second
	// instance brought up and torn down beside the one under load — so its
	// samples are spread over the whole run like every other metric's.
	setupTimes := []float64{firstSetup}
	var setupErr error
	again := func() {
		extra, took, err := setUp(cfg)
		if err != nil {
			setupErr = err
			return
		}
		extra.close()
		setupTimes = append(setupTimes, took)
	}
	warmUp(cfg, s, ck, g)
	rounds := timedRounds(cfg, s, ck, g, cfg.seconds, again)
	if setupErr != nil {
		return nil, nil, setupErr
	}
	if err := s.checkBooks(); err != nil {
		res.problem("%v", err)
	}
	res.Metrics = newMetricSet(endToEnd)
	res.Spread = map[string]float64{}
	res.Rounds = len(rounds)
	per := map[string][]float64{"setup_s": setupTimes}
	for _, r := range rounds {
		ops := float64(len(r.latMs))
		res.Attempted += len(r.latMs)
		res.Failed += r.failed
		per["query_p50_ms"] = append(per["query_p50_ms"], quantile(r.latMs, 0.50))
		per["cpu_ms_per_query"] = append(per["cpu_ms_per_query"], millis(r.cpu)/ops)
		per["alloc_kb_per_query"] = append(per["alloc_kb_per_query"], r.allocKiB/ops)
	}
	res.PerRound = per
	for _, d := range endToEnd {
		if xs, ok := per[d.Name]; ok {
			res.Metrics.set(d.Name, quietDecile(xs, d.Better))
			res.Spread[d.Name] = spread(xs)
		}
	}
	res.Metrics.set("peak_rss_mb", float64(readUsage().maxRSSKiB)/1024)
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil, nil
}
