// Command gupt-cli is the analyst's client for a guptd server. It submits
// one query (or a budget/list inquiry) over the computation-manager
// protocol and prints the differentially private answer.
//
// Usage:
//
//	gupt-cli -addr 127.0.0.1:7113 -op list
//	gupt-cli -addr 127.0.0.1:7113 -op budget -dataset census
//	gupt-cli -op stats -admin 127.0.0.1:7114   # per-dataset budget table
//	gupt-cli -addr 127.0.0.1:7113 -op query -dataset census \
//	         -program mean -col 0 -range 0,150 -epsilon 1
//	gupt-cli -op query -dataset census -program mean -col 0 \
//	         -range 0,150 -accuracy 0.9 -confidence 0.9
//	gupt-cli audit verify /var/lib/gupt/audit   # check the audit log's hash chain
//	gupt-cli audit tail -tenant acme /var/lib/gupt/audit
//	gupt-cli top -admin 127.0.0.1:7114          # live fleet/queue/budget view
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"gupt/internal/compman"
)

type rangeFlags []compman.RangeSpec

func (r *rangeFlags) String() string { return fmt.Sprintf("%v", []compman.RangeSpec(*r)) }

func (r *rangeFlags) Set(v string) error {
	parts := strings.Split(v, ",")
	if len(parts) != 2 {
		return fmt.Errorf("want lo,hi, got %q", v)
	}
	lo, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return err
	}
	hi, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return err
	}
	*r = append(*r, compman.RangeSpec{Lo: lo, Hi: hi})
	return nil
}

func main() {
	log.SetPrefix("gupt-cli: ")
	log.SetFlags(0)

	// The audit, tenant, and top subcommands are operator tooling (local
	// files / the admin HTTP plane); they dispatch before flag parsing.
	if len(os.Args) > 1 && os.Args[1] == "audit" {
		if err := runAudit(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "tenant" {
		if err := runTenant(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		if err := runTop(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}

	var (
		addr       = flag.String("addr", "127.0.0.1:7113", "guptd address")
		admin      = flag.String("admin", "", "guptd admin endpoint; with -op stats renders the per-dataset budget table, with -op cache the noisy-answer cache counters")
		op         = flag.String("op", "query", "operation: query | budget | list | stats | cache | ping")
		ds         = flag.String("dataset", "", "dataset name")
		program    = flag.String("program", "mean", "program: mean | median | variance | percentile | covariance | histogram | kmeans | logreg | linreg | naivebayes")
		col        = flag.Int("col", 0, "target column")
		colB       = flag.Int("colB", 0, "second column for -program covariance")
		pq         = flag.Float64("p", 0.5, "quantile for -program percentile")
		histLo     = flag.Float64("histLo", 0, "histogram lower bound")
		histHi     = flag.Float64("histHi", 0, "histogram upper bound")
		bins       = flag.Int("bins", 0, "histogram bin count")
		k          = flag.Int("k", 2, "clusters for -program kmeans")
		dims       = flag.Int("dims", 1, "feature dims for kmeans/logreg/linreg/naivebayes")
		labelCol   = flag.Int("label", 0, "label/target column for logreg/linreg/naivebayes")
		iters      = flag.Int("iters", 20, "logreg: gradient passes; kmeans: at most N Lloyd iterations")
		mode       = flag.String("mode", "tight", "range mode: tight | loose | helper")
		epsilon    = flag.Float64("epsilon", 0, "privacy budget for this query")
		accuracy   = flag.Float64("accuracy", 0, "accuracy goal rho in (0,1); replaces -epsilon")
		confidence = flag.Float64("confidence", 0.9, "confidence for -accuracy")
		blockSize  = flag.Int("blocksize", 0, "block size beta (0 = default n^0.6)")
		gamma      = flag.Int("gamma", 0, "resampling factor (0/1 = off)")
		autoBlock  = flag.Bool("autoblock", false, "tune block size from the aged sample")
		seed       = flag.Int64("seed", 0, "seed for reproducible runs")
		deadline   = flag.Duration("deadline", 0, "answer-by budget for this query; the server refuses (with a retry hint, zero epsilon spent) rather than answer late (0 = none)")
		apiKey     = flag.String("api-key", os.Getenv("GUPT_API_KEY"), "tenant API key for a tenancy-enabled server (default $GUPT_API_KEY)")
		adminToken = flag.String("admin-token", os.Getenv("GUPT_ADMIN_TOKEN"), "admin token for -admin HTTP views (default $GUPT_ADMIN_TOKEN)")
		ranges     rangeFlags
	)
	flag.Var(&ranges, "range", "output range lo,hi (repeat per output dimension)")
	flag.Parse()

	// The admin stats and cache tables talk HTTP to the operator plane; no
	// protocol connection is needed.
	if *op == "stats" && *admin != "" {
		if err := adminStats(*admin, *adminToken); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *op == "cache" {
		if *admin == "" {
			log.Fatal("-op cache needs -admin (the cache is an operator view)")
		}
		if err := adminCache(*admin, *adminToken); err != nil {
			log.Fatal(err)
		}
		return
	}

	client, err := compman.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if *apiKey != "" {
		client.SetAPIKey(*apiKey)
	}

	switch *op {
	case "ping":
		if err := client.Ping(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("ok")
	case "list":
		names, err := client.Datasets()
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "budget":
		requireDataset(*ds)
		rem, err := client.RemainingBudget(*ds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("remaining privacy budget: %g\n", rem)
	case "stats":
		stats, err := client.Stats()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("queries ok: %d   failed: %d   budget refusals: %d\n",
			stats.QueriesOK, stats.QueriesFailed, stats.BudgetRefusals)
		fmt.Printf("aborted (budget kept): %d   degraded: %d   blocks substituted: %d\n",
			stats.QueriesAborted, stats.QueriesDegraded, stats.BlocksSubstituted)
		if stats.QueriesOK > 0 {
			fmt.Printf("mean query latency: %dms\n", stats.TotalQueryMillis/stats.QueriesOK)
		}
	case "query":
		requireDataset(*ds)
		req := &compman.Request{
			Dataset: *ds,
			Program: &compman.ProgramSpec{
				Type: *program, Col: *col, ColB: *colB, P: *pq,
				Lo: *histLo, Hi: *histHi, Bins: *bins,
				K: *k, FeatureDims: *dims, LabelCol: *labelCol, Iters: *iters, Seed: *seed,
			},
			Mode:           *mode,
			OutputRanges:   ranges,
			Epsilon:        *epsilon,
			BlockSize:      *blockSize,
			Gamma:          *gamma,
			AutoBlockSize:  *autoBlock,
			Seed:           *seed,
			DeadlineMillis: deadline.Milliseconds(),
		}
		if *accuracy > 0 {
			req.Epsilon = 0
			req.Accuracy = &compman.AccuracySpec{Rho: *accuracy, Confidence: *confidence}
		}
		resp, err := client.Query(req)
		if err != nil {
			// A post-charge abort still consumed privacy budget (§6.2);
			// the analyst needs to see that, not just the error.
			var qe *compman.QueryError
			if errors.As(err, &qe) && qe.EpsilonCharged > 0 {
				log.Fatalf("%v (epsilon %g was still consumed)", err, qe.EpsilonCharged)
			}
			log.Fatal(err)
		}
		fmt.Printf("output: %v\n", resp.Output)
		fmt.Printf("epsilon spent: %g   blocks: %d (size %d)   failed blocks: %d\n",
			resp.EpsilonSpent, resp.NumBlocks, resp.BlockSize, resp.FailedBlocks)
		if resp.CacheHit {
			fmt.Println("served from cache: this answer was already released; no budget was charged")
		}
		if resp.TraceID != "" {
			fmt.Printf("trace: %s\n", resp.TraceID)
		}
	default:
		log.Fatalf("unknown -op %q", *op)
	}
}

func requireDataset(name string) {
	if name == "" {
		fmt.Fprintln(os.Stderr, "gupt-cli: -dataset is required")
		os.Exit(2)
	}
}
