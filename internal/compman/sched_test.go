package compman

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
)

func testSched(cfg SchedConfig) *scheduler { return newScheduler(cfg, telemetry.NewRegistry()) }

func waitQueueDepth(t *testing.T, s *scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.queueDepth() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", n, s.queueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerDisabled(t *testing.T) {
	if s := testSched(SchedConfig{}); s != nil {
		t.Fatal("zero config must disable the scheduler")
	}
	// The nil scheduler is a no-op admit: every query runs immediately.
	var s *scheduler
	release, retryAfter, verdict := s.admit(context.Background(), time.Time{})
	if verdict != schedAdmitted || retryAfter != 0 {
		t.Fatalf("nil scheduler admit = %v, %v", verdict, retryAfter)
	}
	release()
}

// EDF: queued waiters are admitted earliest-deadline-first, with
// deadline-less waiters last — regardless of arrival order.
func TestSchedulerEDFOrder(t *testing.T) {
	s := testSched(SchedConfig{MaxConcurrent: 1, MaxQueue: 8})
	ctx := context.Background()
	release, _, verdict := s.admit(ctx, time.Time{})
	if verdict != schedAdmitted {
		t.Fatalf("first admit = %v", verdict)
	}

	admitted := make(chan string, 3)
	var wg sync.WaitGroup
	enqueue := func(name string, deadline time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, _, v := s.admit(ctx, deadline)
			if v != schedAdmitted {
				t.Errorf("waiter %s verdict = %v", name, v)
				return
			}
			admitted <- name
			rel()
		}()
	}
	// Arrival order: no deadline, late deadline, early deadline.
	enqueue("none", time.Time{})
	waitQueueDepth(t, s, 1)
	enqueue("late", time.Now().Add(5*time.Second))
	waitQueueDepth(t, s, 2)
	enqueue("early", time.Now().Add(1*time.Second))
	waitQueueDepth(t, s, 3)

	release() // each admitted waiter releases, cascading the promotions
	wg.Wait()
	close(admitted)
	var order []string
	for name := range admitted {
		order = append(order, name)
	}
	want := []string{"early", "late", "none"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order %v, want %v", order, want)
		}
	}
}

func TestSchedulerQueueFullBusy(t *testing.T) {
	s := testSched(SchedConfig{MaxConcurrent: 1, MaxQueue: 1})
	ctx := context.Background()
	release, _, _ := s.admit(ctx, time.Time{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rel, _, v := s.admit(ctx, time.Time{})
		if v == schedAdmitted {
			rel()
		}
	}()
	waitQueueDepth(t, s, 1)

	// Queue full: the third arrival is refused with a positive retry hint.
	rel, retryAfter, verdict := s.admit(ctx, time.Time{})
	if verdict != schedBusy {
		if rel != nil {
			rel()
		}
		t.Fatalf("verdict = %v, want schedBusy", verdict)
	}
	if retryAfter <= 0 {
		t.Errorf("busy rejection retry hint = %v, want > 0", retryAfter)
	}
	release()
	wg.Wait()
}

// A deadline that has already passed is refused before queueing — and a
// deadline that passes while queued converts to schedExpired without a
// release ever happening.
func TestSchedulerDeadlineExpiry(t *testing.T) {
	s := testSched(SchedConfig{MaxConcurrent: 1})
	ctx := context.Background()

	_, retryAfter, verdict := s.admit(ctx, time.Now().Add(-time.Second))
	if verdict != schedExpired {
		t.Fatalf("past deadline verdict = %v, want schedExpired", verdict)
	}
	if retryAfter <= 0 {
		t.Errorf("expired rejection retry hint = %v, want > 0", retryAfter)
	}

	release, _, _ := s.admit(ctx, time.Time{}) // occupy the slot
	start := time.Now()
	_, _, verdict = s.admit(ctx, time.Now().Add(50*time.Millisecond))
	if verdict != schedExpired {
		t.Fatalf("queued-past-deadline verdict = %v, want schedExpired", verdict)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("expiry took %v; the queue timer should fire at ~50ms", elapsed)
	}
	release()

	// No slot leaked: the next query is admitted immediately.
	rel, _, verdict := s.admit(ctx, time.Time{})
	if verdict != schedAdmitted {
		t.Fatalf("post-expiry admit = %v", verdict)
	}
	rel()
}

// An expiry is counted once, where it is decided. Here a release finds the
// queued waiter past its deadline (moved into the past under s.mu, so the
// waiter's own timer, an hour out, cannot decide it first): the release's
// promotion rejects it, and the waiter returns schedExpired without
// counting it a second time.
func TestSchedulerExpiryCountedOnce(t *testing.T) {
	s := testSched(SchedConfig{MaxConcurrent: 1})
	ctx := context.Background()
	release, _, _ := s.admit(ctx, time.Time{}) // occupy the slot

	done := make(chan schedVerdict, 1)
	go func() {
		rel, _, v := s.admit(ctx, time.Now().Add(time.Hour))
		if v == schedAdmitted {
			rel()
		}
		done <- v
	}()
	waitQueueDepth(t, s, 1)
	s.mu.Lock()
	s.queue[0].deadline = time.Now().Add(-time.Second)
	s.mu.Unlock()
	release()

	if v := <-done; v != schedExpired {
		t.Fatalf("verdict = %v, want schedExpired", v)
	}
	if got := s.cExpired.Value(); got != 1 {
		t.Errorf("compman.sched.rejected_expired = %d, want 1", got)
	}
	// The rejected waiter took no slot.
	rel, _, v := s.admit(ctx, time.Time{})
	if v != schedAdmitted {
		t.Fatalf("post-expiry admit = %v", v)
	}
	rel()
}

func TestSchedulerCancelledWhileQueued(t *testing.T) {
	s := testSched(SchedConfig{MaxConcurrent: 1})
	release, _, _ := s.admit(context.Background(), time.Time{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan schedVerdict, 1)
	go func() {
		_, _, v := s.admit(ctx, time.Time{})
		done <- v
	}()
	waitQueueDepth(t, s, 1)
	cancel()
	if v := <-done; v != schedCancelled {
		t.Fatalf("verdict = %v, want schedCancelled", v)
	}
	waitQueueDepth(t, s, 0) // the abandoned waiter must leave the queue
	release()
}

// slowWrapper returns a ChamberWrapper that sleeps before every block
// execution, making queries slow enough to overlap in admission tests.
func slowWrapper(d time.Duration) func(sandbox.Chamber) sandbox.Chamber {
	return func(inner sandbox.Chamber) sandbox.Chamber {
		return chamberFunc(func(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return inner.Execute(ctx, block)
		})
	}
}

// End to end: an overloaded server answers surplus queries with a
// RetryAfterMillis backpressure refusal instead of slowing everyone down —
// and every refusal costs zero ε.
func TestServerOverloadBackpressure(t *testing.T) {
	const total = 100.0
	const eps = 0.5
	c0, srv := startServerCfg(t, total, ServerConfig{
		ChamberWrapper: slowWrapper(200 * time.Millisecond),
		Sched:          SchedConfig{MaxConcurrent: 1, MaxQueue: 1},
	})
	addr := srv.Addr().String()
	c0.Close()

	const queries = 4
	type outcome struct {
		resp *Response
		err  error
	}
	outcomes := make(chan outcome, queries)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				outcomes <- outcome{err: err}
				return
			}
			defer cl.Close()
			<-start
			req := meanQuery(eps, 2000)
			req.Seed = seed
			resp, err := cl.Query(req)
			outcomes <- outcome{resp, err}
		}(int64(i))
	}
	close(start)
	wg.Wait()
	close(outcomes)

	successes, refusals := 0, 0
	for o := range outcomes {
		if o.err == nil {
			successes++
			continue
		}
		var qe *QueryError
		if !errors.As(o.err, &qe) {
			t.Fatalf("malformed failure %T: %v", o.err, o.err)
		}
		if !strings.Contains(qe.Msg, "overloaded") {
			t.Fatalf("refusal %q does not name the overload", qe.Msg)
		}
		if qe.RetryAfterMillis < 1 {
			t.Errorf("refusal carries no RetryAfterMillis hint: %+v", qe)
		}
		if qe.EpsilonCharged != 0 {
			t.Errorf("overload refusal charged ε %v; backpressure must be free", qe.EpsilonCharged)
		}
		refusals++
	}
	if successes == 0 {
		t.Fatal("no query was served")
	}
	if refusals == 0 {
		t.Fatal("no query was refused — overload never materialized (vacuous test)")
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rem, err := cl.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if want := total - eps*float64(successes); math.Abs(rem-want) > 1e-9 {
		t.Errorf("remaining budget %v, want %v (%d served, %d refused free)", rem, want, successes, refusals)
	}
	if got := srv.Telemetry().Counter("compman.queries_overloaded").Value(); got != int64(refusals) {
		t.Errorf("compman.queries_overloaded = %d, want %d", got, refusals)
	}
}

// A query whose answer-by deadline cannot be met — the slot is held past
// its expiry — is refused as unmeetable with zero ε consumed, while the
// occupying query completes normally.
func TestServerDeadlineUnmeetableRefusal(t *testing.T) {
	const total = 10.0
	const eps = 1.0
	c, srv := startServerCfg(t, total, ServerConfig{
		ChamberWrapper: slowWrapper(300 * time.Millisecond),
		Sched:          SchedConfig{MaxConcurrent: 1},
	})
	addr := srv.Addr().String()

	slowDone := make(chan error, 1)
	go func() {
		req := meanQuery(eps, 2000)
		req.Seed = 1
		_, err := c.Query(req)
		slowDone <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the slow query take the slot

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	req := meanQuery(eps, 2000)
	req.Seed = 2
	req.DeadlineMillis = 50 // expires long before the ~900ms slow query frees the slot
	_, err = cl.Query(req)
	if err == nil {
		t.Fatal("deadline-doomed query was answered")
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("malformed failure %T: %v", err, err)
	}
	if !strings.Contains(qe.Msg, "deadline") {
		t.Errorf("refusal %q does not name the deadline", qe.Msg)
	}
	if qe.RetryAfterMillis < 1 || qe.EpsilonCharged != 0 {
		t.Errorf("refusal = %+v; want a free rejection with a retry hint", qe)
	}

	if err := <-slowDone; err != nil {
		t.Fatalf("occupying query failed: %v", err)
	}
	rem, err := cl.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if want := total - eps; math.Abs(rem-want) > 1e-9 {
		t.Errorf("remaining budget %v, want %v (only the served query may charge)", rem, want)
	}
}

// A refusal's retry hint leaves the server only as a bucket ceiling: the
// wait rounds up to the next telemetry.DefaultLatencyBuckets bound, to
// whole seconds above the top bound, and never below 1 ms.
func TestRetryHintRoundsUpToBuckets(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want int64
	}{
		{0, 1},
		{time.Nanosecond, 1},
		{time.Millisecond, 1},
		{time.Millisecond + time.Nanosecond, 2},
		{3 * time.Millisecond, 5},
		{10 * time.Millisecond, 10},
		{11 * time.Millisecond, 25},
		{999 * time.Millisecond, 1000},
		{1001 * time.Millisecond, 2500},
		{30 * time.Second, 30000},
		{30*time.Second + time.Nanosecond, 31000},
		{31 * time.Second, 31000},
		{90*time.Second + 500*time.Millisecond, 91000},
	}
	for _, c := range cases {
		if got := retryHintMillis(c.wait); got != c.want {
			t.Errorf("retryHintMillis(%v) = %d, want %d", c.wait, got, c.want)
		}
	}
}
