package compman

// The server's adapter onto the shared query pipeline (internal/query):
// wire request in, pipeline description out, result shaped back into a
// wire response. Everything the pipeline does — cache, charge, run, fill —
// happens behind stage.Run / stage.RunSession.

import (
	"context"
	"fmt"
	"time"

	"gupt/internal/aging"
	"gupt/internal/analytics"
	"gupt/internal/core"
	"gupt/internal/query"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
)

// handleQuery maps an OpQuery request onto the shared pipeline
// (internal/query), which looks the dataset up, consults the noisy-answer
// cache, settles the privacy charge and runs the engine, then shapes the
// response. tenantID is the authenticated principal ("" = single-tenant
// mode); tr records the query's lifecycle spans; deadline is the client's
// absolute answer-by time (zero: none).
func (s *Server) handleQuery(req *Request, tenantID string, tr *telemetry.Trace, deadline time.Time) Response {
	if req.Program == nil {
		return Response{Error: "query missing program"}
	}
	q, err := s.pipelineQuery(req, tenantID, tr)
	if err != nil {
		return errResponse(err)
	}
	q.Deadline = deadline
	res, charged, err := s.stage.Run(context.Background(), q)
	if err != nil {
		// A run that failed after its charge settled still consumed budget
		// (§6.2 — aborts never refund): report the failure along with the
		// ε it cost.
		resp := errResponse(err)
		resp.EpsilonCharged = charged
		return resp
	}
	return Response{
		OK:              true,
		Output:          res.Output,
		EpsilonSpent:    res.EpsilonSpent,
		EpsilonCharged:  charged,
		EffectiveRanges: rangesToWire(res.EffectiveRanges),
		NumBlocks:       res.NumBlocks,
		BlockSize:       res.BlockSize,
		FailedBlocks:    res.FailedBlocks,
		CacheHit:        res.CacheHit,
	}
}

// pipelineQuery resolves the wire forms (program spec, ranges, mode,
// translate spec) into the pipeline's query description and adds what the
// server decides: ledger label, quantum and failure policy, and the chamber
// factory — subprocess isolation for uploaded executables, the worker pool
// when one is configured, both under the configured ChamberWrapper.
func (s *Server) pipelineQuery(req *Request, tenantID string, tr *telemetry.Trace) (*query.Query, error) {
	program, isBinary, err := req.Program.resolve()
	if err != nil {
		return nil, err
	}
	out, err := rangesFromWire(req.OutputRanges)
	if err != nil {
		return nil, err
	}
	in, err := rangesFromWire(req.InputRanges)
	if err != nil {
		return nil, err
	}
	q := &query.Query{
		Tenant:  tenantID,
		Dataset: req.Dataset,
		Label:   req.Dataset + ":" + req.Program.Type,
		Program: program,
		Ranges: core.RangeSpec{
			Output: out, Input: in,
			PercentileLow: req.PercentileLow, PercentileHigh: req.PercentileHigh,
		},
		Options: core.Options{
			Epsilon:      req.Epsilon,
			BlockSize:    req.BlockSize,
			Gamma:        req.Gamma,
			Seed:         req.Seed,
			Quantum:      s.cfg.DefaultQuantum,
			BlockTimeout: s.cfg.BlockTimeout,
			MaxFailFrac:  s.cfg.MaxFailFrac,
			UserLevel:    req.UserLevel,
			UserColumn:   req.UserColumn,
			Metrics:      s.tel,
			Trace:        tr,
		},
		AutoBlockSize: req.AutoBlockSize,
	}
	switch req.Mode {
	case "tight", "":
		q.Ranges.Mode = core.ModeTight
	case "loose":
		q.Ranges.Mode = core.ModeLoose
	case "helper":
		q.Ranges.Mode = core.ModeHelper
	default:
		return nil, fmt.Errorf("compman: unknown mode %q", req.Mode)
	}
	if t := req.Translate; t != nil {
		q.Linear = &query.Linear{InputDim: t.InputDim, Scale: t.Scale, Offset: t.Offset}
	}
	if a := req.Accuracy; a != nil {
		q.Accuracy = &aging.AccuracyGoal{Rho: a.Rho, Confidence: a.Confidence}
	}
	if req.QuantumMillis > 0 {
		q.Options.Quantum = time.Duration(req.QuantumMillis) * time.Millisecond
	}
	if isBinary {
		// Uploaded executables always run under subprocess isolation; the
		// in-process path is reserved for the platform's own library.
		path, args := req.Program.Path, req.Program.Args
		q.Program = query.Binary{Path: path, Args: args, Dims: req.Program.OutputDims}
		q.Options.NewChamber = func(_ analytics.Program, pol sandbox.Policy) sandbox.Chamber {
			return &sandbox.Subprocess{Path: path, Args: args, Policy: pol, ScratchRoot: s.cfg.ScratchRoot}
		}
	}
	// Cluster execution: fan the blocks out over the worker daemons. The
	// workers resolve the same program spec (and run binaries under their
	// local subprocess chambers), so this overrides any local factory.
	if s.poolErr != nil {
		return nil, fmt.Errorf("compman: worker pool unavailable: %w", s.poolErr)
	}
	if s.pool != nil {
		progSpec := *req.Program
		q.Options.NewChamber = func(_ analytics.Program, pol sandbox.Policy) sandbox.Chamber {
			return s.pool.Chamber(WorkSpec{
				Program:       progSpec,
				QuantumMillis: pol.Quantum.Milliseconds(),
				TraceID:       tr.ID,
			}, tr)
		}
		q.Options.Parallelism = s.pool.Parallelism()
	}
	q.Options.NewChamber = s.wrapChamberFactory(q.Options.NewChamber)
	return q, nil
}

// wrapChamberFactory applies the configured ChamberWrapper around a
// chamber factory (nil selects the engine's in-process default).
func (s *Server) wrapChamberFactory(base func(analytics.Program, sandbox.Policy) sandbox.Chamber) func(analytics.Program, sandbox.Policy) sandbox.Chamber {
	if s.cfg.ChamberWrapper == nil {
		return base
	}
	if base == nil {
		base = func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber {
			return &sandbox.InProcess{Program: prog, Policy: pol}
		}
	}
	return func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber {
		return s.cfg.ChamberWrapper(base(prog, pol))
	}
}

// handleSession maps an OpSession request onto the shared pipeline: a §5.2
// budget-distributed batch, charged atomically before anything runs. Each
// member is resolved exactly like a standalone query with tight ranges, so
// members fan out over the worker pool the same way. tenantID attributes
// the charge and partitions the session cache ("" = single-tenant mode).
func (s *Server) handleSession(req *Request, tenantID string, tr *telemetry.Trace, deadline time.Time) Response {
	spec := req.Session
	if spec == nil {
		return Response{Error: "session op missing payload"}
	}
	sess := query.Session{
		Tenant:       tenantID,
		Dataset:      req.Dataset,
		Label:        fmt.Sprintf("session:%s:%d-queries", req.Dataset, len(spec.Queries)),
		TotalEpsilon: spec.TotalEpsilon,
		Members:      make([]query.Query, len(spec.Queries)),
		Deadline:     deadline,
	}
	for i := range spec.Queries {
		m := &spec.Queries[i]
		if m.Program.Type == "binary" {
			return Response{Error: fmt.Sprintf("session query %d: binary programs are not supported in sessions", i)}
		}
		q, err := s.pipelineQuery(&Request{
			Dataset:      req.Dataset,
			Program:      &m.Program,
			OutputRanges: m.OutputRanges,
			BlockSize:    m.BlockSize,
			Gamma:        m.Gamma,
			Seed:         m.Seed,
		}, tenantID, tr)
		if err != nil {
			return errResponse(fmt.Errorf("session query %d: %w", i, err))
		}
		sess.Members[i] = *q
	}
	members, charged, err := s.stage.RunSession(context.Background(), &sess)
	if err != nil {
		return errResponse(err)
	}
	resp := Response{OK: true, Session: make([]SessionResult, len(members)), EpsilonCharged: charged}
	for i, m := range members {
		if m.Err != nil {
			resp.Session[i] = SessionResult{Error: m.Err.Error(), EpsilonSpent: m.Epsilon}
			continue
		}
		resp.CacheHit = m.Result.CacheHit
		resp.Session[i] = SessionResult{
			Output:       m.Result.Output,
			EpsilonSpent: m.Result.EpsilonSpent,
			FailedBlocks: m.Result.FailedBlocks,
		}
	}
	return resp
}
