package sandbox

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/mathutil"
)

// TestMain doubles as the sandboxed analysis app: when GUPT_TEST_APP is
// set, the test binary acts as a subprocess-chamber app instead of running
// tests. This exercises the real exec path without building a separate
// binary.
func TestMain(m *testing.M) {
	mode := os.Getenv("GUPT_TEST_APP")
	if mode == "" {
		os.Exit(m.Run())
	}
	err := ServeApp(os.Stdin, os.Stdout, func(block []mathutil.Vec) (mathutil.Vec, error) {
		switch mode {
		case "mean":
			return analytics.Mean{Col: 0}.Run(block)
		case "sleep":
			time.Sleep(5 * time.Second)
			return analytics.Mean{Col: 0}.Run(block)
		case "crash":
			os.Exit(3)
			return nil, nil
		case "apperr":
			return nil, errors.New("deliberate app failure")
		case "state":
			// State attack: leave a marker in scratch; report whether a
			// marker from a previous run survived.
			scratch := os.Getenv(ScratchEnv)
			marker := filepath.Join(scratch, "marker")
			found := 0.0
			if _, err := os.Stat(marker); err == nil {
				found = 1
			}
			if err := os.WriteFile(marker, []byte("leak"), 0o600); err != nil {
				return nil, err
			}
			return mathutil.Vec{found}, nil
		case "cwdstate":
			// Same attack via the working directory instead of the env var.
			found := 0.0
			if _, err := os.Stat("cwd-marker"); err == nil {
				found = 1
			}
			if err := os.WriteFile("cwd-marker", []byte("leak"), 0o600); err != nil {
				return nil, err
			}
			return mathutil.Vec{found}, nil
		case "env":
			// Report how many environment variables we can see beyond the
			// sanctioned scratch variable.
			extra := 0.0
			for _, kv := range os.Environ() {
				if !strings.HasPrefix(kv, ScratchEnv+"=") {
					extra++
				}
			}
			return mathutil.Vec{extra}, nil
		default:
			return nil, fmt.Errorf("unknown test app %q", mode)
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

func testBlock(n int) []mathutil.Vec {
	out := make([]mathutil.Vec, n)
	for i := range out {
		out[i] = mathutil.Vec{float64(i)}
	}
	return out
}

func subprocessChamber(t *testing.T, mode string, policy Policy) *Subprocess {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &Subprocess{
		Path:        exe,
		Policy:      policy,
		ScratchRoot: t.TempDir(),
		ExtraEnv:    []string{"GUPT_TEST_APP=" + mode},
	}
}

func TestInProcessBasic(t *testing.T) {
	ch := &InProcess{Program: analytics.Mean{Col: 0}}
	out, err := ch.Execute(context.Background(), testBlock(5))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Errorf("mean = %v, want 2", out[0])
	}
}

func TestInProcessDataIsolation(t *testing.T) {
	evil := analytics.Func{ProgName: "mutator", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		for i := range block {
			block[i][0] = -999 // try to corrupt the platform's data
		}
		return mathutil.Vec{0}, nil
	}}
	block := testBlock(3)
	if _, err := (&InProcess{Program: evil}).Execute(context.Background(), block); err != nil {
		t.Fatal(err)
	}
	for i, r := range block {
		if r[0] != float64(i) {
			t.Fatalf("chamber leaked mutable data: row %d = %v", i, r[0])
		}
	}
}

// A chamber that owns its blocks (the worker daemon's, over a freshly
// decoded work frame) runs the program on the block itself, and therefore
// must not be offered zero-copy views of shared rows.
func TestInProcessOwnsBlock(t *testing.T) {
	var saw *float64
	probe := analytics.Func{ProgName: "probe", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		saw = &block[0][0]
		return mathutil.Vec{0}, nil
	}}
	block := testBlock(3)
	owning := &InProcess{Program: probe, OwnsBlock: true}
	if _, err := owning.Execute(context.Background(), block); err != nil {
		t.Fatal(err)
	}
	if saw != &block[0][0] {
		t.Error("owning chamber copied a block it was told is already private")
	}
	if owning.ReadOnlyBlocks() {
		t.Error("owning chamber claims ReadOnlyBlocks: the engine would hand it shared rows")
	}
	copying := &InProcess{Program: probe}
	if _, err := copying.Execute(context.Background(), block); err != nil {
		t.Fatal(err)
	}
	if saw == &block[0][0] || !copying.ReadOnlyBlocks() {
		t.Error("zero-value chamber must copy the block and declare ReadOnlyBlocks")
	}
}

func TestInProcessPanicIsolation(t *testing.T) {
	bomb := analytics.Func{ProgName: "bomb", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		panic("boom")
	}}
	// Without a substitute, the panic surfaces as an error.
	_, err := (&InProcess{Program: bomb}).Execute(context.Background(), testBlock(1))
	if !errors.Is(err, ErrPanicked) {
		t.Errorf("err = %v, want ErrPanicked", err)
	}
	// With a substitute, the platform releases the constant instead.
	ch := &InProcess{Program: bomb, Policy: Policy{Substitute: mathutil.Vec{7}}}
	out, err := ch.Execute(context.Background(), testBlock(1))
	if err != nil || out[0] != 7 {
		t.Errorf("substituted output = %v, %v; want 7", out, err)
	}
}

func TestInProcessKillOnQuantum(t *testing.T) {
	slow := analytics.Func{ProgName: "slow", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		time.Sleep(5 * time.Second)
		return mathutil.Vec{1}, nil
	}}
	ch := &InProcess{Program: slow, Policy: Policy{Quantum: 50 * time.Millisecond, Substitute: mathutil.Vec{42}}}
	start := time.Now()
	out, err := ch.Execute(context.Background(), testBlock(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 42 {
		t.Errorf("killed block output = %v, want substitute 42", out[0])
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("kill took %v, quantum was 50ms", elapsed)
	}
	// Without a substitute the kill is an error.
	ch2 := &InProcess{Program: slow, Policy: Policy{Quantum: 50 * time.Millisecond}}
	if _, err := ch2.Execute(context.Background(), testBlock(1)); !errors.Is(err, ErrKilled) {
		t.Errorf("err = %v, want ErrKilled", err)
	}
}

// Timing-attack defense: with a quantum, a fast block takes just as long as
// the quantum — completion time is data-independent.
func TestInProcessTimingNormalization(t *testing.T) {
	const quantum = 150 * time.Millisecond
	ch := &InProcess{Program: analytics.Mean{Col: 0}, Policy: Policy{Quantum: quantum, Substitute: mathutil.Vec{0}}}
	start := time.Now()
	if _, err := ch.Execute(context.Background(), testBlock(3)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < quantum {
		t.Errorf("fast block finished in %v, must be held to the %v quantum", elapsed, quantum)
	}
}

func TestInProcessContextCancel(t *testing.T) {
	slow := analytics.Func{ProgName: "slow", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		time.Sleep(5 * time.Second)
		return mathutil.Vec{1}, nil
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := (&InProcess{Program: slow}).Execute(ctx, testBlock(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context deadline", err)
	}
}

func TestInProcessNilProgram(t *testing.T) {
	if _, err := (&InProcess{}).Execute(context.Background(), testBlock(1)); err == nil {
		t.Error("nil program accepted")
	}
}

func TestSubprocessBasic(t *testing.T) {
	ch := subprocessChamber(t, "mean", Policy{})
	out, err := ch.Execute(context.Background(), testBlock(5))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Errorf("subprocess mean = %v, want 2", out[0])
	}
}

func TestSubprocessKillOnQuantum(t *testing.T) {
	ch := subprocessChamber(t, "sleep", Policy{Quantum: 200 * time.Millisecond, Substitute: mathutil.Vec{9}})
	start := time.Now()
	out, err := ch.Execute(context.Background(), testBlock(3))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 9 {
		t.Errorf("killed subprocess output = %v, want substitute 9", out[0])
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("kill took %v", elapsed)
	}
}

func TestSubprocessCrashSubstitute(t *testing.T) {
	ch := subprocessChamber(t, "crash", Policy{Substitute: mathutil.Vec{5}})
	out, err := ch.Execute(context.Background(), testBlock(1))
	if err != nil || out[0] != 5 {
		t.Errorf("crash substitute = %v, %v; want 5", out, err)
	}
	// Without a substitute the crash is an error.
	ch2 := subprocessChamber(t, "crash", Policy{})
	if _, err := ch2.Execute(context.Background(), testBlock(1)); err == nil {
		t.Error("crash with no substitute must error")
	}
}

func TestSubprocessAppError(t *testing.T) {
	ch := subprocessChamber(t, "apperr", Policy{})
	if _, err := ch.Execute(context.Background(), testBlock(1)); err == nil || !strings.Contains(err.Error(), "deliberate app failure") {
		t.Errorf("app error not propagated: %v", err)
	}
}

// State-attack defense: a program that leaves a marker in its scratch space
// must never find it again on a later execution.
func TestSubprocessStateAttackDefeated(t *testing.T) {
	for _, mode := range []string{"state", "cwdstate"} {
		ch := subprocessChamber(t, mode, Policy{})
		for run := 0; run < 3; run++ {
			out, err := ch.Execute(context.Background(), testBlock(1))
			if err != nil {
				t.Fatalf("%s run %d: %v", mode, run, err)
			}
			if out[0] != 0 {
				t.Fatalf("%s run %d: marker from a previous execution leaked through", mode, run)
			}
		}
	}
}

// The sandboxed process sees an empty environment apart from its scratch
// path and explicitly whitelisted variables.
func TestSubprocessEnvironmentCleared(t *testing.T) {
	t.Setenv("GUPT_SECRET_FOR_TEST", "should-not-leak")
	ch := subprocessChamber(t, "env", Policy{})
	out, err := ch.Execute(context.Background(), testBlock(1))
	if err != nil {
		t.Fatal(err)
	}
	// The only extra variable is the GUPT_TEST_APP mode selector we
	// whitelisted ourselves.
	if out[0] != 1 {
		t.Errorf("subprocess saw %v extra env vars, want exactly the 1 whitelisted", out[0])
	}
}

func TestSubprocessScratchWiped(t *testing.T) {
	root := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ch := &Subprocess{Path: exe, ScratchRoot: root, ExtraEnv: []string{"GUPT_TEST_APP=state"}}
	if _, err := ch.Execute(context.Background(), testBlock(1)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("scratch root not wiped: %d entries remain", len(entries))
	}
}

func TestSubprocessTimingNormalization(t *testing.T) {
	const quantum = 300 * time.Millisecond
	ch := subprocessChamber(t, "mean", Policy{Quantum: quantum, Substitute: mathutil.Vec{0}})
	start := time.Now()
	if _, err := ch.Execute(context.Background(), testBlock(2)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < quantum {
		t.Errorf("fast subprocess finished in %v, must be held to %v", elapsed, quantum)
	}
}

func TestSubprocessMissingExecutable(t *testing.T) {
	ch := &Subprocess{Path: ""}
	if _, err := ch.Execute(context.Background(), testBlock(1)); err == nil {
		t.Error("empty path accepted")
	}
	ch2 := &Subprocess{Path: "/nonexistent/gupt-app", Policy: Policy{Substitute: mathutil.Vec{1}}}
	// Even a missing binary resolves to the substitute when configured: the
	// platform never exposes failure modes to the output channel.
	out, err := ch2.Execute(context.Background(), testBlock(1))
	if err != nil || out[0] != 1 {
		t.Errorf("missing exe substitute = %v, %v", out, err)
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	var buf strings.Builder
	block := testBlock(3)
	if err := WriteRequest(&buf, block); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2][0] != 2 {
		t.Errorf("request round trip = %v", got)
	}

	var rbuf strings.Builder
	if err := WriteResponse(&rbuf, mathutil.Vec{1.5}, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResponse(strings.NewReader(rbuf.String()))
	if err != nil || out[0] != 1.5 {
		t.Errorf("response round trip = %v, %v", out, err)
	}

	var ebuf strings.Builder
	if err := WriteResponse(&ebuf, nil, errors.New("bad")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponse(strings.NewReader(ebuf.String())); err == nil {
		t.Error("error response round trip lost the error")
	}

	if _, err := ReadRequest(strings.NewReader("not json")); err == nil {
		t.Error("garbage request accepted")
	}
	if _, err := ReadResponse(strings.NewReader("not json")); err == nil {
		t.Error("garbage response accepted")
	}
}
