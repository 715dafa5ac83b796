package sandbox

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"time"

	"gupt/internal/mathutil"
)

// ScratchEnv is the single environment variable a sandboxed app receives:
// the path of its private, per-execution scratch directory. Everything the
// app writes there is destroyed when the execution ends, which is what
// breaks state attacks (paper §6.2) — a program cannot leave a marker for a
// later block or query to find.
const ScratchEnv = "GUPT_SCRATCH"

// Subprocess is a chamber that executes the analysis program as a separate
// OS process per block:
//
//   - fresh process and address space per execution;
//   - environment cleared except ScratchEnv (plus any explicitly
//     whitelisted ExtraEnv entries, e.g. GOCOVERDIR in tests);
//   - a private scratch directory, wiped after the run;
//   - the block arrives on stdin and the output leaves on stdout
//     (sandbox.Request / sandbox.Response); there is no other channel;
//   - the process is killed if it outlives the quantum, which Execute
//     reports as ErrKilled (the engine substitutes the block).
type Subprocess struct {
	// Path and Args name the analysis app executable (e.g. cmd/gupt-app).
	Path string
	Args []string
	// Policy is the execution policy; Quantum > 0 additionally arms the
	// kill deadline.
	Policy Policy
	// ScratchRoot is where per-execution scratch directories are created;
	// empty means the OS temp dir.
	ScratchRoot string
	// ExtraEnv entries ("K=V") are appended to the otherwise-empty
	// environment. Use sparingly; anything here is visible to the
	// untrusted program.
	ExtraEnv []string
}

// Execute implements Chamber.
func (c *Subprocess) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.run(ctx, requestOf(block))
}

// ExecuteRows implements RowChamber: the block's rows are encoded onto the
// child's stdin straight from rows, which this process never mutates.
func (c *Subprocess) ExecuteRows(ctx context.Context, _ int, rows mathutil.Matrix, idx []int) (mathutil.Vec, error) {
	req := Request{Block: make([][]float64, len(idx))}
	for j, i := range idx {
		req.Block[j] = rows.Row(i)
	}
	return c.run(ctx, &req)
}

// run executes the app once on req.
func (c *Subprocess) run(ctx context.Context, req *Request) (mathutil.Vec, error) {
	if c.Path == "" {
		return nil, errors.New("sandbox: Subprocess chamber has no executable path")
	}
	start := time.Now()

	scratch, err := os.MkdirTemp(c.ScratchRoot, "gupt-chamber-*")
	if err != nil {
		return nil, fmt.Errorf("sandbox: create scratch: %w", err)
	}
	// The scratch space is emptied upon program termination, whatever the
	// outcome (state-attack defense).
	defer os.RemoveAll(scratch)

	runCtx := ctx
	var cancel context.CancelFunc
	if c.Policy.Quantum > 0 {
		runCtx, cancel = context.WithTimeout(ctx, c.Policy.Quantum)
		defer cancel()
	}

	var stdin bytes.Buffer
	if err := req.write(&stdin); err != nil {
		return nil, err
	}
	var stdout, stderr bytes.Buffer

	cmd := exec.CommandContext(runCtx, c.Path, c.Args...)
	cmd.Stdin = &stdin
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	cmd.Dir = scratch
	cmd.Env = append([]string{ScratchEnv + "=" + scratch}, c.ExtraEnv...)
	cmd.WaitDelay = time.Second // reap even if the app holds pipes open

	c.Policy.Metrics.Counter("sandbox.subprocess.spawns").Inc()
	runErr := cmd.Run()

	if runCtx.Err() == context.DeadlineExceeded {
		// Killed by the quantum. No hold needed; we are already exactly at
		// the quantum.
		c.Policy.Metrics.Counter("sandbox.subprocess.kills").Inc()
		return nil, fmt.Errorf("%w: %s", ErrKilled, c.Path)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if runErr != nil {
		c.Policy.holdRemaining(ctx, start)
		return nil, fmt.Errorf("sandbox: app process failed: %w (stderr: %s)", runErr, truncate(stderr.String(), 256))
	}

	result, err := ReadResponse(&stdout)
	c.Policy.holdRemaining(ctx, start)
	return result, err
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
