// Quickstart: register a dataset with a lifetime privacy budget and run a
// differentially private average — the "average age" query the GUPT paper
// uses throughout (§5.1, Figs. 7–8).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"gupt"
	"gupt/internal/workload"
)

func main() {
	log.SetFlags(0)

	// The data owner's side: a census table of 32,561 ages, a lifetime
	// privacy budget of ε = 10, and the public knowledge that ages lie in
	// [0, 150] (a loose, non-sensitive bound — paper §3.1).
	census := workload.CensusIncome(1, workload.CensusRows)
	rows := make([][]float64, census.NumRows())
	for i := range rows {
		rows[i] = census.Row(i)
	}

	platform := gupt.New()
	err := platform.Register("census", rows, []string{"age"}, gupt.DatasetOptions{
		TotalBudget: 10,
		Ranges:      []gupt.Range{{Lo: 0, Hi: 150}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The analyst's side: an average-age query with an explicit privacy
	// budget. The Mean program is a black box to the platform; any
	// Program implementation works the same way.
	res, err := platform.Run(context.Background(), gupt.Query{
		Dataset:      "census",
		Program:      gupt.Mean{Col: 0},
		OutputRanges: []gupt.Range{{Lo: 0, Hi: 150}},
		Epsilon:      1,
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}

	trueMean := workload.CensusTrueMean
	fmt.Printf("differentially private average age: %.2f (true: %.2f)\n", res.Output[0], trueMean)
	fmt.Printf("privacy spent: eps=%.2f across %d blocks of %d records\n",
		res.EpsilonSpent, res.NumBlocks, res.BlockSize)

	remaining, err := platform.RemainingBudget("census")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remaining lifetime budget: %.2f\n", remaining)

	// The platform owns the ledger: once the budget runs out, queries are
	// refused and consume nothing.
	for i := 0; ; i++ {
		_, err := platform.Run(context.Background(), gupt.Query{
			Dataset:      "census",
			Program:      gupt.Mean{Col: 0},
			OutputRanges: []gupt.Range{{Lo: 0, Hi: 150}},
			Epsilon:      2,
			Seed:         int64(i),
		})
		if err != nil {
			fmt.Printf("after %d more queries: %v\n", i, err)
			break
		}
	}
}
