package ledger

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"gupt/internal/dp"
)

// SIGKILL recovery matrix. The test re-executes its own binary as a child
// process (TestMain dispatch) that charges a ledger in a loop and kills
// itself — a real, unblockable SIGKILL — at a named durability boundary
// (Options.CrashPoint) or at a random instant. The parent then replays the
// directory and asserts the §6.2 invariant the whole subsystem exists for:
//
//	recovered spent ε  ≥  sum of acknowledged charges
//
// An acknowledged charge is one whose Spend returned nil (the child prints
// an ack line only after that), i.e. one an answer may have been released
// for. Over-counting is allowed — a charge the crash cut off before its
// ack may still be on the books — under-counting never is.

const (
	envChild     = "LEDGER_KILL_CHILD"
	envDir       = "LEDGER_KILL_DIR"
	envSync      = "LEDGER_KILL_SYNC"
	envPoint     = "LEDGER_KILL_POINT"
	envAfter     = "LEDGER_KILL_AFTER"
	envTotal     = "LEDGER_KILL_TOTAL"
	envCharges   = "LEDGER_KILL_N"
	envEps       = "LEDGER_KILL_EPS"
	envThreshold = "LEDGER_KILL_SNAPSHOT"
	envTenants   = "LEDGER_KILL_TENANTS"
)

func TestMain(m *testing.M) {
	if os.Getenv(envChild) == "1" {
		runKillChild()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runKillChild is the workload under test: bind one dataset, charge in a
// loop, ack each durable charge on stdout, and SIGKILL ourselves when the
// configured crash point fires.
func runKillChild() {
	dir := os.Getenv(envDir)
	point := os.Getenv(envPoint)
	after, _ := strconv.Atoi(os.Getenv(envAfter))
	total, _ := strconv.ParseFloat(os.Getenv(envTotal), 64)
	n, _ := strconv.Atoi(os.Getenv(envCharges))
	eps, _ := strconv.ParseFloat(os.Getenv(envEps), 64)
	threshold, _ := strconv.ParseInt(os.Getenv(envThreshold), 10, 64)

	var policy SyncPolicy
	if os.Getenv(envSync) == "batched" {
		policy = SyncBatched
	}

	seen := 0
	opts := Options{
		Sync:              policy,
		SnapshotThreshold: threshold,
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
	b, err := l.Bind("ds", dp.NewAccountant(total))
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: bind: %v\n", err)
		os.Exit(3)
	}
	// With envTenants set the child round-robins charges across tenant ids
	// (SpendAs) so the parent can check PER-TENANT balances after the kill.
	var tenants []string
	if tl := os.Getenv(envTenants); tl != "" {
		tenants = strings.Split(tl, ",")
	}
	for i := 0; i < n; i++ {
		tid := ""
		if len(tenants) > 0 {
			tid = tenants[i%len(tenants)]
		}
		if err := b.SpendAs(tid, "kill-q", eps); err == nil {
			// The charge is durable (Spend acks only after fsync); a
			// SIGKILL between Spend and this print can only lose an ack,
			// never a durable record — the safe direction for the check.
			fmt.Printf("ack %d %s\n", i, tid)
		}
	}
	l.Close()
}

// runKill launches the child with the given scenario and returns the
// number of acknowledged charges (total and per tenant id) and whether it
// died by signal.
func runKill(t *testing.T, scenario map[string]string, killAfter time.Duration) (acks int, ackByTenant map[string]int, signaled bool) {
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
	ackByTenant = make(map[string]int)
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "ack" {
			acks++
			if len(fields) >= 3 {
				ackByTenant[fields[2]]++
			}
		}
	}
	signaled = err != nil && cmd.ProcessState.ExitCode() == -1
	return acks, ackByTenant, signaled
}

// recoverAndCheck replays the directory and enforces the invariant, then
// proves a restart can keep serving: bind, charge once more, recover again.
func recoverAndCheck(t *testing.T, dir string, acks int, eps, total float64) {
	t.Helper()
	rec, err := Recover(dir, testLogger(t))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	ackSum := float64(acks) * eps
	got := rec.Datasets["ds"].Spent
	if got < ackSum-1e-9 {
		t.Fatalf("UNDER-COUNT: recovered spent %v < acknowledged %v (%d acks)", got, ackSum, acks)
	}

	// Restart path: the same directory must come back up and keep charging.
	l, err := Open(dir, Options{Logger: testLogger(t)})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer l.Close()
	acct := dp.NewAccountant(total)
	b, err := l.Bind("ds", acct)
	if err != nil {
		t.Fatalf("rebind after kill: %v", err)
	}
	if acct.Remaining() > eps {
		if err := b.SpendAs("", "post-restart", eps); err != nil {
			t.Fatalf("charging after restart: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Recover(dir, nil)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if rec2.Datasets["ds"].Spent < got-1e-9 {
		t.Fatalf("spend went backwards across restart: %v -> %v", got, rec2.Datasets["ds"].Spent)
	}
}

func testLogger(t *testing.T) *log.Logger {
	return log.New(testWriter{t}, "", 0)
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// TestKillMatrix SIGKILLs the child at every durability boundary the
// ledger crosses — after the record write, after the fsync, after the
// in-memory debit, and at each step of snapshot compaction — under both
// fsync policies, and proves recovery never under-counts acknowledged ε.
func TestKillMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns many child processes")
	}
	const eps = 0.001
	const total = 1e6
	boundaries := []struct {
		point string
		after int // fire on the n-th crossing, to land mid-stream too
	}{
		{CrashAfterAppend, 1},
		{CrashAfterAppend, 9},
		{CrashAfterSync, 1},
		{CrashAfterSync, 17},
		{CrashAfterSpend, 1},
		{CrashAfterSpend, 25},
		{CrashBeforeSnapshotRename, 1},
		{CrashAfterSnapshot, 1},
		{CrashAfterWALSwap, 1},
	}
	for _, sync := range []string{"record", "batched"} {
		for _, bd := range boundaries {
			bd := bd
			t.Run(fmt.Sprintf("%s/%s@%d", sync, bd.point, bd.after), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				acks, _, signaled := runKill(t, map[string]string{
					envDir:       dir,
					envSync:      sync,
					envPoint:     bd.point,
					envAfter:     strconv.Itoa(bd.after),
					envTotal:     fmt.Sprint(total),
					envCharges:   "400",
					envEps:       fmt.Sprint(eps),
					envThreshold: "1500", // force compaction within the run
				}, 0)
				if !signaled {
					t.Fatal("crash point never fired; the scenario exercised nothing")
				}
				recoverAndCheck(t, dir, acks, eps, total)
			})
		}
	}
}

// TestKillOnRefundPath exhausts a tiny budget so refund records flow, then
// kills at the refund boundary: lost refunds may over-count, never under.
func TestKillOnRefundPath(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	const eps = 0.01
	const total = 0.05
	for _, sync := range []string{"record", "batched"} {
		t.Run(sync, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			acks, _, signaled := runKill(t, map[string]string{
				envDir:     dir,
				envSync:    sync,
				envPoint:   CrashAfterRefund,
				envAfter:   "2",
				envTotal:   fmt.Sprint(total),
				envCharges: "40",
				envEps:     fmt.Sprint(eps),
			}, 0)
			if !signaled {
				t.Fatal("refund crash point never fired")
			}
			recoverAndCheck(t, dir, acks, eps, total)
		})
	}
}

// TestKillTenantBalances runs the kill matrix with charges round-robined
// across two tenant ids and checks the PR 8 invariant per tenant: each
// tenant's recovered balance is at least its acknowledged ε. Tenant
// attribution must survive SIGKILL at the same durability boundaries the
// aggregate invariant does, including through a snapshot compaction.
func TestKillTenantBalances(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	const eps = 0.001
	const total = 1e6
	boundaries := []struct {
		point string
		after int
	}{
		{CrashAfterSync, 7},
		{CrashAfterSpend, 13},
		{CrashAfterSnapshot, 1},
		{CrashAfterWALSwap, 1},
	}
	for _, sync := range []string{"record", "batched"} {
		for _, bd := range boundaries {
			bd := bd
			t.Run(fmt.Sprintf("%s/%s@%d", sync, bd.point, bd.after), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				_, ackByTenant, signaled := runKill(t, map[string]string{
					envDir:       dir,
					envSync:      sync,
					envPoint:     bd.point,
					envAfter:     strconv.Itoa(bd.after),
					envTotal:     fmt.Sprint(total),
					envCharges:   "400",
					envEps:       fmt.Sprint(eps),
					envThreshold: "1500",
					envTenants:   "alpha,beta",
				}, 0)
				if !signaled {
					t.Fatal("crash point never fired; the scenario exercised nothing")
				}
				rec, err := Recover(dir, testLogger(t))
				if err != nil {
					t.Fatalf("recovery failed: %v", err)
				}
				ds := rec.Datasets["ds"]
				for _, tid := range []string{"alpha", "beta"} {
					ackSum := float64(ackByTenant[tid]) * eps
					if got := ds.TenantSpent[tid]; got < ackSum-1e-9 {
						t.Fatalf("tenant %s UNDER-COUNT: recovered %v < acknowledged %v (%d acks)",
							tid, got, ackSum, ackByTenant[tid])
					}
				}
				// The per-tenant attributions must never exceed the aggregate.
				var tenantSum float64
				for _, v := range ds.TenantSpent {
					tenantSum += v
				}
				if tenantSum > ds.Spent+1e-9 {
					t.Fatalf("tenant balances sum %v exceeds aggregate spent %v", tenantSum, ds.Spent)
				}
			})
		}
	}
}

// TestKillRandomTiming kills the child at arbitrary wall-clock instants —
// including mid-write, which no named boundary can hit — and checks the
// same invariant. Several delays per policy give the schedule room to land
// in different phases.
func TestKillRandomTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	const eps = 0.001
	const total = 1e6
	delays := []time.Duration{3 * time.Millisecond, 11 * time.Millisecond, 29 * time.Millisecond}
	for _, sync := range []string{"record", "batched"} {
		for i, d := range delays {
			d := d
			t.Run(fmt.Sprintf("%s/delay%d", sync, i), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				acks, _, _ := runKill(t, map[string]string{
					envDir:       dir,
					envSync:      sync,
					envTotal:     fmt.Sprint(total),
					envCharges:   "200000",
					envEps:       fmt.Sprint(eps),
					envThreshold: "4096",
				}, d)
				// The child may or may not die before finishing; either way
				// the books must not under-count.
				recoverAndCheck(t, dir, acks, eps, total)
			})
		}
	}
}
