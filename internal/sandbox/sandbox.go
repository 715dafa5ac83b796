// Package sandbox implements GUPT's isolated execution chambers (paper §6).
// A chamber runs one untrusted analysis program on one data block and
// enforces the platform's side-channel defenses:
//
//   - State attacks: each execution gets a private copy of its block (in
//     recycled storage, see InProcess), and the subprocess chamber gives
//     each run a brand-new OS process with a private scratch directory that
//     is wiped afterwards, so no state can flow between blocks or between
//     queries. The engine hands a chamber the shared table and the block's
//     index list (RowChamber), and the chamber's one copy reads the block
//     straight from the table: the program sees only that copy.
//   - Timing attacks: with a positive Quantum every block consumes exactly
//     the same wall-clock time — early finishers are held until the quantum
//     elapses, and overruns are killed at it. Block runtime is therefore
//     independent of the data. A chamber reports every failure (a kill, a
//     panic, a failed app) as an error; the engine (internal/core) is the
//     one place that replaces a failed block with a data-independent
//     substitute inside the expected output range.
//   - Privacy-budget attacks are defended one layer up (the accountant in
//     internal/dp is owned by the platform), but chambers contribute by
//     never exposing the budget to the program.
//
// The paper's deployment uses AppArmor to confine the analysis process; the
// subprocess chamber reproduces the properties GUPT's privacy argument
// needs (fresh process, empty environment, private wiped scratch space,
// hard kill on deadline) with portable os/exec machinery. See DESIGN.md §3.
package sandbox

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/mathutil"
	"gupt/internal/telemetry"
)

// Chamber executes an untrusted computation on one block of records.
type Chamber interface {
	// Execute runs the computation on block and returns its output vector.
	// Implementations must not allow the computation to retain access to
	// block after returning.
	Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error)
}

// BlockChamber is an optional Chamber extension for implementations that
// want the block's index within its query — the hook distributed chambers
// use for consistent block→worker assignment. Rows' adapter calls
// ExecuteBlock when a chamber implements it and falls back to Execute
// otherwise. The index must not influence the computation's result: it is
// routing metadata only.
type BlockChamber interface {
	Chamber
	ExecuteBlock(ctx context.Context, idx int, block []mathutil.Vec) (mathutil.Vec, error)
}

// RowChamber is the Chamber extension the engine calls: a block handed
// over as the shared table (one row-major Matrix) plus the block's index
// list, so that the chamber's one copy of the block (a private buffer, a
// work frame, stdin JSON) reads each row straight from the table by stride
// and no view of the block is built first. ExecuteRows reads rows only
// through idx, never writes them, and keeps nothing of them after
// returning; the untrusted program sees only the chamber's copy. block is
// routing metadata only, as in BlockChamber.
type RowChamber interface {
	Chamber
	ExecuteRows(ctx context.Context, block int, rows mathutil.Matrix, idx []int) (mathutil.Vec, error)
}

// Rows returns c as a RowChamber: c itself when it is one, and otherwise an
// adapter that gathers each block into a fresh private copy and hands that
// to c's ExecuteBlock, or to its Execute. A chamber that makes no promise
// about the rows it is handed may mutate or keep them, so it never sees the
// shared rows, and a copy it keeps is never reused for another block.
func Rows(c Chamber) RowChamber {
	if rc, ok := c.(RowChamber); ok {
		return rc
	}
	return copyingChamber{c}
}

type copyingChamber struct{ Chamber }

func (c copyingChamber) ExecuteRows(ctx context.Context, block int, rows mathutil.Matrix, idx []int) (mathutil.Vec, error) {
	private := new(mathutil.RowBuf).Gather(rows, idx)
	if bc, ok := c.Chamber.(BlockChamber); ok {
		return bc.ExecuteBlock(ctx, block, private)
	}
	return c.Chamber.Execute(ctx, private)
}

// ErrKilled is returned (wrapped) when a computation exceeded its quantum.
var ErrKilled = errors.New("sandbox: computation exceeded its time quantum")

// ErrPanicked is returned (wrapped) when an in-process computation panicked.
var ErrPanicked = errors.New("sandbox: computation panicked")

// Policy is the per-block execution policy shared by all chamber types.
type Policy struct {
	// Quantum is the fixed wall-clock time every block execution consumes.
	// Zero disables timing normalization: blocks run to completion with no
	// deadline. (The experiment harness uses zero for throughput runs; the
	// hosted-platform configuration sets it.)
	Quantum time.Duration
	// Metrics, when non-nil, receives chamber lifecycle counters
	// (sandbox.*.spawns / kills). Counts only — a chamber never reports
	// block contents or per-execution timings through this.
	Metrics *telemetry.Registry
}

// holdRemaining sleeps until the quantum has fully elapsed since start, so
// completion time does not depend on the data. A nil-deadline context can
// cut the wait short (caller cancellation is not data-dependent).
func (p Policy) holdRemaining(ctx context.Context, start time.Time) {
	if p.Quantum <= 0 {
		return
	}
	remaining := p.Quantum - time.Since(start)
	if remaining <= 0 {
		return
	}
	t := time.NewTimer(remaining)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// InProcess is a chamber that runs a Program inside the current process.
// It provides data isolation (the program sees a private copy of the
// block), panic isolation, and timing normalization. A panic comes back as
// ErrPanicked, a kill at the quantum as ErrKilled and a program error as
// itself, each for the engine to substitute — but a malicious
// program sharing our address space could still keep global state, so the
// hosted platform uses Subprocess chambers for analyst-supplied code.
// InProcess is intended for platform-trusted programs and for benchmarking
// the isolation overhead (paper §6.1).
//
// The program runs on the goroutine that called Execute or ExecuteRows
// when nothing can interrupt it (no quantum, a context that cannot be
// cancelled), and on a goroutine of its own otherwise, so that a quantum
// kill or a cancellation can return without it.
//
// The private copy lives in recycled storage (mathutil.RowBuf), not in a
// fresh allocation, which is as safe under four rules. The storage is
// released only by the goroutine that ran the program, once Run has returned
// or panicked: a quantum-killed or cancelled block's abandoned goroutine
// keeps its buffer until it really ends. The output vector is copied out
// first, since it may alias the block. Every use rewrites all row headers
// and cuts both capacities, so re-slicing cannot reach a previous block's,
// dataset's or tenant's bytes. And only a holder that can know the program
// is done recycles at all. A program that kept its block past Run could as
// well have copied it to a global while running, so recycling grants it
// nothing new.
type InProcess struct {
	Program analytics.Program
	Policy  Policy
	// OwnsBlock declares that every block handed to Execute is already
	// private to that call — the worker daemon's decoded work frame — so
	// the program runs on it directly instead of on a second copy. Set in
	// code by such a caller, never from configuration; the zero value
	// copies, and ExecuteRows, whose rows are shared, always copies.
	OwnsBlock bool
	// Release, when set, is called once per execution that started the
	// program, by the goroutine that ran it, after Run has returned or
	// panicked and its output has been copied out: the moment an owned
	// block's storage may be reused. It is never called on behalf of a
	// program that is still running. Code-only, like OwnsBlock.
	Release func()
}

// Execute implements Chamber. With Policy.Quantum <= 0 and a ctx whose Done
// is nil, the program runs on the calling goroutine, and a program that
// calls runtime.Goexit ends the caller's goroutine (the engine's workers
// replace themselves when that happens). Otherwise it runs on a goroutine
// of its own, and Execute returns at the quantum or at ctx's end whether or
// not the program has. Unless the chamber owns its blocks, the program runs
// on a private copy of block.
func (c *InProcess) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	start, err := c.begin()
	if err != nil {
		return nil, err
	}
	if c.OwnsBlock {
		return c.execute(ctx, start, block, nil)
	}
	buf := mathutil.GetRowBuf()
	return c.execute(ctx, start, buf.CopyRows(block), buf)
}

// ExecuteRows implements RowChamber: the block is gathered from rows into
// the program's private copy in one pass, whatever OwnsBlock says, and runs
// as under Execute.
func (c *InProcess) ExecuteRows(ctx context.Context, _ int, rows mathutil.Matrix, idx []int) (mathutil.Vec, error) {
	start, err := c.begin()
	if err != nil {
		return nil, err
	}
	buf := mathutil.GetRowBuf()
	return c.execute(ctx, start, buf.Gather(rows, idx), buf)
}

// begin checks the chamber and counts a spawn; the quantum runs from the
// time it returns, the private copy included.
func (c *InProcess) begin() (time.Time, error) {
	if c.Program == nil {
		return time.Time{}, errors.New("sandbox: InProcess chamber has no program")
	}
	c.Policy.Metrics.Counter("sandbox.inprocess.spawns").Inc()
	return time.Now(), nil
}

// execute runs the program on private — the one copy per (record, block)
// the state-attack defense needs, in buf's storage, or the owner's when buf
// is nil — under the policy's quantum.
func (c *InProcess) execute(ctx context.Context, start time.Time, private []mathutil.Vec, buf *mathutil.RowBuf) (mathutil.Vec, error) {
	if c.Policy.Quantum <= 0 && ctx.Done() == nil {
		// No quantum can kill this block and no context can cancel it, so
		// the select below could only ever return through done: run the
		// program here, on the caller's goroutine.
		return c.run(private, buf)
	}

	type result struct {
		out mathutil.Vec
		err error
	}
	done := make(chan result, 1)
	go func() {
		var res result
		// Sent even when the program ends its goroutine (runtime.Goexit):
		// the empty result is then a malformed output.
		defer func() { done <- res }()
		res.out, res.err = c.run(private, buf)
	}()

	var deadline <-chan time.Time
	if c.Policy.Quantum > 0 {
		t := time.NewTimer(c.Policy.Quantum)
		defer t.Stop()
		deadline = t.C
	}

	select {
	case r := <-done:
		c.Policy.holdRemaining(ctx, start)
		return r.out, r.err
	case <-deadline:
		// The goroutine is abandoned; it holds only its private copy, whose
		// storage it gives back itself if it ever ends — never from here.
		c.Policy.Metrics.Counter("sandbox.inprocess.kills").Inc()
		return nil, fmt.Errorf("%w: %s", ErrKilled, c.Program.Name())
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run runs the program on its private block, on whichever goroutine execute
// chose. Only here is the program known to be done with its block, however
// long ago Execute stopped waiting for it: when Run returns, panics or ends
// the goroutine, the deferred release hands the storage on — buf, or the
// owner's through Release — after the output, which may alias the block,
// was copied out.
func (c *InProcess) run(private []mathutil.Vec, buf *mathutil.RowBuf) (out mathutil.Vec, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%w: %v", ErrPanicked, r)
		}
		buf.Release()
		if c.Release != nil {
			c.Release()
		}
	}()
	out, err = c.Program.Run(private)
	return out.Clone(), err
}
