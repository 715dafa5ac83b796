// Package sandbox implements GUPT's isolated execution chambers (paper §6).
// A chamber runs one untrusted analysis program on one data block and
// enforces the platform's side-channel defenses:
//
//   - State attacks: each execution gets a private copy of its block (in
//     recycled storage, see InProcess), and the subprocess chamber gives
//     each run a brand-new OS process with a private scratch directory that
//     is wiped afterwards, so no state can flow between blocks or between
//     queries.
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
// use for consistent block→worker assignment. The engine calls
// ExecuteBlock when a chamber implements it and falls back to Execute
// otherwise. The index must not influence the computation's result: it is
// routing metadata only.
type BlockChamber interface {
	Chamber
	ExecuteBlock(ctx context.Context, idx int, block []mathutil.Vec) (mathutil.Vec, error)
}

// ReadOnlyChamber is an optional Chamber extension declaring that Execute
// never mutates the rows of the block it is handed (and does not retain
// them after returning). The engine hands such chambers zero-copy views of
// the dataset partition instead of per-block clones — the block rows flow
// straight into the wire encoder or the chamber's own private copy.
// Chambers that cannot make this promise simply don't implement it.
type ReadOnlyChamber interface {
	// ReadOnlyBlocks returns true when the chamber treats block rows as
	// immutable. A false return disables the zero-copy path (useful for
	// wrappers that forward to an unknown inner chamber).
	ReadOnlyBlocks() bool
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
// The program runs on the goroutine that called Execute when nothing can
// interrupt it (no quantum, a context that cannot be cancelled), and on a
// goroutine of its own otherwise, so that a quantum kill or a cancellation
// can return without it.
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
	// copies.
	OwnsBlock bool
	// Release, when set, is called once per Execute that started the
	// program, by the goroutine that ran it, after Run has returned or
	// panicked and its output has been copied out: the moment an owned
	// block's storage may be reused. It is never called on behalf of a
	// program that is still running. Code-only, like OwnsBlock.
	Release func()
}

// ReadOnlyBlocks implements ReadOnlyChamber: unless the chamber owns its
// blocks, Execute copies each into private storage before the program runs,
// so the caller's rows are never touched and the engine skips its own copy.
// That copy is what keeps an untrusted program off the registered table.
func (c *InProcess) ReadOnlyBlocks() bool { return !c.OwnsBlock }

// Execute implements Chamber. With Policy.Quantum <= 0 and a ctx whose Done
// is nil, the program runs on the calling goroutine, and a program that
// calls runtime.Goexit ends the caller's goroutine (the engine's workers
// replace themselves when that happens). Otherwise it runs on a goroutine
// of its own, and Execute returns at the quantum or at ctx's end whether or
// not the program has.
func (c *InProcess) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	if c.Program == nil {
		return nil, errors.New("sandbox: InProcess chamber has no program")
	}
	c.Policy.Metrics.Counter("sandbox.inprocess.spawns").Inc()
	start := time.Now()

	// The program gets its own copy — the one copy per (record, block) the
	// state-attack defense needs: it can never mutate the caller's data.
	private := block
	var buf *mathutil.RowBuf // nil when the chamber owns its block
	if !c.OwnsBlock {
		buf = mathutil.GetRowBuf()
		private = buf.CopyRows(block)
	}

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

// run runs the program on its private block, on whichever goroutine Execute
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
