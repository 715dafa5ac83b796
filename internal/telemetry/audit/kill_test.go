package audit

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// SIGKILL crash-safety: a child process appends audit records in a tight
// loop and is killed — by a named durability boundary or at a random
// instant — and the invariant is that what remains on disk always
// VERIFIES: the surviving prefix is an intact chain, with at most the
// benign crash artifacts (torn tail, head lagging one record). A crash
// must never leave something Verify reports as tampering, or operators
// would learn to ignore the one signal the audit log exists to give.

const (
	envChild = "AUDIT_KILL_CHILD"
	envDir   = "AUDIT_KILL_DIR"
	envPoint = "AUDIT_KILL_POINT"
	envAfter = "AUDIT_KILL_AFTER"
	envFsync = "AUDIT_KILL_FSYNC"
	envN     = "AUDIT_KILL_N"
)

func TestMain(m *testing.M) {
	if os.Getenv(envChild) == "1" {
		runKillChild()
		os.Exit(0)
	}
	if os.Getenv(envFsizeChild) == "1" {
		if err := runPartialWriteChild(); err != nil {
			fmt.Fprintf(os.Stderr, "child: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runKillChild() {
	dir := os.Getenv(envDir)
	point := os.Getenv(envPoint)
	after, _ := strconv.Atoi(os.Getenv(envAfter))
	n, _ := strconv.Atoi(os.Getenv(envN))

	seen := 0
	opts := Options{
		MaxBytes: 8 << 10, // rotate often so kills land near segment seams
		Fsync:    os.Getenv(envFsync) == "1",
	}
	if point != "" {
		opts.CrashPoint = func(p string) {
			if p != point {
				return
			}
			seen++
			if seen >= after {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // unreachable; SIGKILL cannot be handled
			}
		}
	}
	l, err := Open(dir, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: open: %v\n", err)
		os.Exit(3)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(Record{
			Type:                TypeQuery,
			TraceID:             "0123456789abcdef0123456789abcdef",
			Dataset:             "kill-ds",
			Outcome:             "ok",
			EpsilonCharged:      0.01,
			Blocks:              10,
			LatencyBucketMillis: 25,
		}); err == nil {
			fmt.Printf("ack %d\n", i)
		}
	}
	l.Close()
}

func runKill(t *testing.T, scenario map[string]string, killAfter time.Duration) (acks int, signaled bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), envChild+"=1")
	for k, v := range scenario {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if killAfter > 0 {
		go func() {
			time.Sleep(killAfter)
			cmd.Process.Signal(syscall.SIGKILL)
		}()
	}
	err := cmd.Wait()
	if ctx.Err() != nil {
		t.Fatalf("child timed out; stderr: %s", errb.String())
	}
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == 3 {
		t.Fatalf("child setup failed: %s", errb.String())
	}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if bytes.HasPrefix(sc.Bytes(), []byte("ack ")) {
			acks++
		}
	}
	signaled = err != nil && cmd.ProcessState.ExitCode() == -1
	return acks, signaled
}

// verifyAfterKill asserts the crash invariant and that the directory is
// still appendable (restart path).
func verifyAfterKill(t *testing.T, dir string, acks int) {
	t.Helper()
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("crash left a log Verify rejects: %v\nreport: %+v", err, rep)
	}
	// Every acknowledged append is a fully written record (the ack prints
	// only after Append returned), so the surviving chain cannot be
	// shorter than the acks — page cache survives SIGKILL.
	if rep.Records < uint64(acks) {
		t.Fatalf("chain has %d records but %d appends were acknowledged", rep.Records, acks)
	}
	// HEAD is overwritten in place by one write of headSize bytes, which a
	// kill cannot tear: once it exists it parses and is exactly that long.
	if !rep.HeadMissing {
		readHead(t, dir)
	}

	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	if err := l.Append(Record{Type: TypeQuery, Dataset: "post-restart", Outcome: "ok"}); err != nil {
		t.Fatalf("append after kill: %v", err)
	}
	l.Close()
	rep2, err := Verify(dir)
	if err != nil {
		t.Fatalf("verify after restart append: %v", err)
	}
	if rep2.Records != rep.Records+1 || rep2.TornTail || rep2.HeadLagged {
		t.Fatalf("restart did not heal the crash artifacts: %+v", rep2)
	}
	readHead(t, dir)
}

// TestKillAtBoundaries SIGKILLs between the record append and the head
// sidecar update (the window that must verify as HeadLagged, not tamper)
// and right after the head write.
func TestKillAtBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	boundaries := []struct {
		point string
		after int
	}{
		{CrashAfterAppend, 1},
		{CrashAfterAppend, 37},
		{CrashAfterHead, 1},
		{CrashAfterHead, 53},
	}
	for _, fsync := range []string{"0", "1"} {
		for _, bd := range boundaries {
			bd, fsync := bd, fsync
			t.Run(fmt.Sprintf("fsync%s/%s@%d", fsync, bd.point, bd.after), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				acks, signaled := runKill(t, map[string]string{
					envDir:   dir,
					envPoint: bd.point,
					envAfter: strconv.Itoa(bd.after),
					envFsync: fsync,
					envN:     "500",
				}, 0)
				if !signaled {
					t.Fatal("crash point never fired")
				}
				verifyAfterKill(t, dir, acks)
			})
		}
	}
}

// TestKillRandomTiming kills at arbitrary instants — including mid-write,
// which no named boundary hits.
func TestKillRandomTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	delays := []time.Duration{3 * time.Millisecond, 11 * time.Millisecond, 29 * time.Millisecond}
	for i, d := range delays {
		d := d
		t.Run(fmt.Sprintf("delay%d", i), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			acks, _ := runKill(t, map[string]string{
				envDir: dir,
				envN:   "200000",
			}, d)
			verifyAfterKill(t, dir, acks)
		})
	}
}
