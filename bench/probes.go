package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"gupt/internal/compman"
	"gupt/internal/dp"
	"gupt/internal/ledger"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// timeCalls runs fn n times and returns the mean time per call.
func timeCalls(n int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// probes measures what the replay's span tree cannot hold: layers that sit
// inside another span (the ledger under budget.charge, the work wire under
// compman.pool.block), the non-default ledger mode and the kernels. Each
// probe is a short fixed-count loop over the layer's exported function.
func probes(cfg *runConfig, s *stack, sample []*query, ms metricSet) error {
	w := cfg.w
	block := s.rows[:w.effectiveBlockSize(len(s.rows))] // one block's worth of rows

	// Programs on one block, no chamber.
	specs := map[string]*compman.ProgramSpec{"analytics.mean_us": &meanSpec}
	if w.lifeSci {
		specs["analytics.kmeans_us"], specs["analytics.logreg_us"] = &kmeansSpec, &logregSpec
	}
	for name, spec := range specs {
		program := resolveProgram(spec)
		d, err := timeCalls(scaledOps(20, cfg.scale), func() error { _, err := program.Run(block); return err })
		if err != nil {
			return err
		}
		ms.set(name, micros(d))
	}

	// Kernels, per element.
	xs := make([]float64, 4096)
	rng := mathutil.NewRNG(cfg.seed)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	var sink float64
	d, _ := timeCalls(2000, func() error { sink += mathutil.SumClamped(xs, 0.1, 0.9); return nil })
	ms.set("mathutil.sum_clamped_ns_per_elem", float64(d.Nanoseconds())/float64(len(xs)))
	scales := make([]float64, 1024)
	for i := range scales {
		scales[i] = 1
	}
	d, _ = timeCalls(500, func() error { rng.LaplaceFill(xs[:len(scales)], scales); return nil })
	ms.set("mathutil.laplace_fill_ns_per_draw", float64(d.Nanoseconds())/float64(len(scales)))
	_ = sink

	if w.expect == expectRefused {
		return tenantAndLedgerProbes(cfg, s, ms)
	}

	// How far past its quantum a padded block execution returns.
	chamber := &sandbox.InProcess{Program: resolveProgram(&meanSpec), Policy: sandbox.Policy{Quantum: 5 * time.Millisecond}}
	d, err := timeCalls(scaledOps(20, cfg.scale), func() error { _, err := chamber.Execute(context.Background(), block); return err })
	if err != nil {
		return err
	}
	ms.set("sandbox.quantum_overshoot_us", micros(d-5*time.Millisecond))

	if !w.hosted {
		return nil
	}
	if w.workers > 0 && len(sample) > 0 {
		if err := workWireProbe(&sample[0].req, block, ms); err != nil {
			return err
		}
	}
	return tenantAndLedgerProbes(cfg, s, ms)
}

// workWireProbe times the four work-frame codecs one block execution
// crosses: request and response, encode and decode.
func workWireProbe(req *compman.Request, block []mathutil.Vec, ms metricSet) error {
	wreq := &compman.WorkRequest{Spec: compman.WorkSpec{Program: *req.Program, QuantumMillis: req.QuantumMillis}, Block: rawRows(block)}
	out, err := resolveProgram(req.Program).Run(block)
	if err != nil {
		return err
	}
	wresp := &compman.WorkResponse{Output: out}
	var reqFrame, respFrame, buf []byte
	enc, err := timeCalls(50, func() (err error) {
		if reqFrame, err = compman.AppendWorkRequestFrame(buf[:0], wreq); err != nil {
			return err
		}
		buf = reqFrame
		respFrame, err = compman.AppendWorkResponseFrame(nil, wresp)
		return err
	})
	if err != nil {
		return err
	}
	dec, err := timeCalls(50, func() error {
		if _, _, err := compman.DecodeWorkRequestFrame(reqFrame); err != nil {
			return err
		}
		_, _, err := compman.DecodeWorkResponseFrame(respFrame)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("compman.wire.work_encode_us", micros(enc))
	ms.set("compman.wire.work_decode_us", micros(dec))
	ms.set("compman.wire.work_bytes_per_block", float64(len(reqFrame)+len(respFrame)))
	return nil
}

// tenantAndLedgerProbes times the pieces budget.charge is made of, the
// ledger under both sync policies, and a Ping round trip on the live server.
func tenantAndLedgerProbes(cfg *runConfig, s *stack, ms metricSet) error {
	d, err := timeCalls(200, s.clients[0].Ping)
	if err != nil {
		return err
	}
	ms.set("compman.ping_rtt_us", micros(d))

	tenants, id, _, err := newTenants()
	if err != nil {
		return err
	}
	d, err = timeCalls(1000, func() error {
		if err := tenants.Reserve(id, datasetName, epsPerQuery); err != nil {
			return err
		}
		tenants.Release(id, datasetName, epsPerQuery)
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("tenant.reserve_us", micros(d))

	dir, err := os.MkdirTemp(cfg.tmpRoot, cfg.w.name+"-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, mode := range []struct {
		metric string
		sync   ledger.SyncPolicy
	}{
		{"ledger.spend_batched_us", ledger.SyncBatched},
		{"ledger.spend_record_us", ledger.SyncEveryRecord},
	} {
		led, err := ledger.Open(filepath.Join(dir, mode.metric), ledger.Options{Sync: mode.sync, FlushInterval: ledgerFlush})
		if err != nil {
			return err
		}
		backed, err := led.Bind(datasetName, dp.NewAccountant(totalBudget))
		if err == nil {
			d, err = timeCalls(scaledOps(50, cfg.scale), func() error { return backed.SpendAs(id, "probe", epsPerQuery) })
		}
		led.Close()
		if err != nil {
			return err
		}
		ms.set(mode.metric, micros(d))
	}
	return nil
}
