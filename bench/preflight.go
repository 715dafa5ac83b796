package main

import (
	"context"
	"fmt"
	"net"

	"gupt"
	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/workload"
)

// preflight sends one fixed (program, seed) query down the embedded, the
// served-local and the 2-worker path and requires bit-identical answers: the
// workloads compare those paths, so they must compute the same thing.
func preflight(seed int64) error {
	const rows, blockSize = 4000, 100
	req := compman.Request{
		Dataset:      datasetName,
		Program:      &compman.ProgramSpec{Type: "mean", Col: 0},
		OutputRanges: meanRanges,
		Epsilon:      epsPerQuery,
		BlockSize:    blockSize,
		Seed:         seed,
	}

	p := gupt.New()
	if err := p.Register(datasetName, rawRows(workload.CensusIncome(seed, rows).Rows()), nil, gupt.DatasetOptions{TotalBudget: 1}); err != nil {
		return err
	}
	res, err := p.Run(context.Background(), gupt.Query{
		Dataset:      datasetName,
		Program:      gupt.Mean{Col: 0},
		OutputRanges: dpRanges(meanRanges),
		Epsilon:      epsPerQuery,
		BlockSize:    blockSize,
		Seed:         seed,
	})
	if err != nil {
		return fmt.Errorf("embedded path: %w", err)
	}

	served := func(workers int) ([]float64, error) {
		var addrs []string
		for i := 0; i < workers; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			wk := compman.NewWorker(compman.WorkerConfig{})
			go wk.Serve(l) // returns when the deferred Close runs
			defer wk.Close()
			addrs = append(addrs, l.Addr().String())
		}
		reg := dataset.NewRegistry()
		if _, err := reg.Register(datasetName, workload.CensusIncome(seed, rows), dataset.RegisterOptions{TotalBudget: 1}); err != nil {
			return nil, err
		}
		srv := compman.NewServer(reg, compman.ServerConfig{WorkerAddrs: addrs})
		defer srv.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go srv.Serve(l) // returns when the deferred Close runs
		c, err := compman.Dial(l.Addr().String())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		resp, err := c.Query(&req)
		if err != nil {
			return nil, err
		}
		return resp.Output, nil
	}
	local, err := served(0)
	if err != nil {
		return fmt.Errorf("served-local path: %w", err)
	}
	fanned, err := served(2)
	if err != nil {
		return fmt.Errorf("2-worker path: %w", err)
	}
	if !sameBits(res.Output, local) || !sameBits(local, fanned) {
		return fmt.Errorf("paths disagree: embedded %v, served-local %v, 2-worker %v", res.Output, local, fanned)
	}
	return nil
}
