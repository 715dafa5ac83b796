package compman

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"gupt/internal/telemetry"
)

// Deadline-aware query admission (ROADMAP item 1, scheduler half).
//
// Without a scheduler the server runs every admitted query immediately:
// under overload they all contend for the worker fleet, every query slows
// down, and clients with deadlines see violations instead of backpressure.
// The scheduler bounds concurrency, queues the overflow in
// earliest-deadline-first order, and sheds load the moment it can prove a
// query cannot be served in time — always BEFORE any ε is charged, so a
// rejection costs the analyst nothing and the refusal carries a
// RetryAfterMillis hint derived from observed service times.
//
// The scheduler sits after tenant authentication/rate limiting (cheap
// refusals first) and before the cache lookup and budget charge.

// SchedConfig configures the deadline-aware admission scheduler. The zero
// value disables scheduling entirely: every query runs immediately, the
// pre-scheduler behavior. Per-tenant concurrency is not the scheduler's:
// a tenant's MaxInflight is enforced by the rate limiter before a query
// reaches it.
type SchedConfig struct {
	// MaxConcurrent bounds queries executing at once across the server.
	// Zero or negative disables the scheduler.
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a slot; an arrival past the
	// bound is refused with a RetryAfterMillis hint. Zero selects
	// 4×MaxConcurrent.
	MaxQueue int
}

func (c SchedConfig) enabled() bool { return c.MaxConcurrent > 0 }

func (c SchedConfig) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return 4 * c.MaxConcurrent
}

// schedVerdict is the admission outcome for a query that was not admitted.
type schedVerdict int

const (
	schedAdmitted schedVerdict = iota
	// schedBusy: the wait queue is full — classic backpressure.
	schedBusy
	// schedExpired: the query's deadline passed (or provably will pass)
	// before a slot frees up; running it would only produce a deadline
	// violation after spending resources.
	schedExpired
	// schedCancelled: the caller's context ended while queued.
	schedCancelled
)

// waiter is one queued query.
type waiter struct {
	deadline time.Time // zero: no client deadline (sorts after all deadlines)
	seq      uint64    // FIFO tiebreak
	ready    chan struct{}
	index    int // heap position; -1 once popped
	admitted bool
}

// schedHeap orders waiters earliest-deadline-first; deadline-less waiters
// come last, FIFO among themselves.
type schedHeap []*waiter

func (h schedHeap) Len() int { return len(h) }
func (h schedHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.deadline.IsZero() && b.deadline.IsZero():
		return a.seq < b.seq
	case a.deadline.IsZero():
		return false
	case b.deadline.IsZero():
		return true
	case a.deadline.Equal(b.deadline):
		return a.seq < b.seq
	default:
		return a.deadline.Before(b.deadline)
	}
}
func (h schedHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *schedHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *schedHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

type scheduler struct {
	cfg SchedConfig

	mu         sync.Mutex
	running    int
	queue      schedHeap
	seq        uint64
	ewmaMillis float64 // smoothed query service time, for retry hints

	gDepth    *telemetry.Gauge
	gRunning  *telemetry.Gauge
	cAdmitted *telemetry.Counter
	cQueued   *telemetry.Counter
	cBusy     *telemetry.Counter
	cExpired  *telemetry.Counter
}

func newScheduler(cfg SchedConfig, tel *telemetry.Registry) *scheduler {
	if !cfg.enabled() {
		return nil
	}
	return &scheduler{
		cfg:       cfg,
		gDepth:    tel.Gauge("compman.sched.queue_depth"),
		gRunning:  tel.Gauge("compman.sched.running"),
		cAdmitted: tel.Counter("compman.sched.admitted"),
		cQueued:   tel.Counter("compman.sched.queued"),
		cBusy:     tel.Counter("compman.sched.rejected_busy"),
		cExpired:  tel.Counter("compman.sched.rejected_expired"),
	}
}

func (s *scheduler) startLocked() {
	s.running++
	s.gRunning.Set(int64(s.running))
	s.cAdmitted.Inc()
}

// retryHintLocked estimates when retrying is worthwhile: the smoothed
// service time scaled by how many queries are ahead per execution slot.
// s.mu held.
func (s *scheduler) retryHintLocked() time.Duration {
	ewma := s.ewmaMillis
	if ewma < 1 {
		ewma = 50 // no history yet: a modest default beats hint 0
	}
	waves := float64(s.running+len(s.queue))/float64(s.cfg.MaxConcurrent) + 1
	d := time.Duration(ewma*waves) * time.Millisecond
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// admit asks for an execution slot. It returns schedAdmitted with a
// release func (call exactly once, when the query settles), or a rejection
// verdict with a retry hint. deadline zero means no client deadline; a
// deadline that expires while queued converts to schedExpired without the
// query ever charging ε. Every expiry is counted once, by whichever of
// admit and promoteLocked decides it.
func (s *scheduler) admit(ctx context.Context, deadline time.Time) (release func(), retryAfter time.Duration, verdict schedVerdict) {
	if s == nil {
		return func() {}, 0, schedAdmitted
	}
	s.mu.Lock()
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		hint := s.retryHintLocked()
		s.cExpired.Inc()
		s.mu.Unlock()
		return nil, hint, schedExpired
	}
	// A free slot implies an empty queue: a release promotes a waiter
	// into the slot it frees.
	if s.running < s.cfg.MaxConcurrent {
		s.startLocked()
		s.mu.Unlock()
		return s.releaseFunc(time.Now()), 0, schedAdmitted
	}
	if len(s.queue) >= s.cfg.maxQueue() {
		hint := s.retryHintLocked()
		s.cBusy.Inc()
		s.mu.Unlock()
		return nil, hint, schedBusy
	}
	w := &waiter{
		deadline: deadline,
		seq:      s.seq,
		ready:    make(chan struct{}),
	}
	s.seq++
	heap.Push(&s.queue, w)
	s.gDepth.Set(int64(len(s.queue)))
	s.cQueued.Inc()
	s.mu.Unlock()

	// A queued waiter with a deadline also arms a timer: expiry must not
	// wait for the next release to be noticed. (w.deadline belongs to the
	// heap now and is read only under s.mu.)
	var expiry <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expiry = t.C
	}
	select {
	case <-w.ready:
	case <-expiry:
		if s.abandon(w) {
			s.mu.Lock()
			hint := s.retryHintLocked()
			s.cExpired.Inc()
			s.mu.Unlock()
			return nil, hint, schedExpired
		}
		// Lost the race: a release admitted (or expired) us first.
		<-w.ready
	case <-ctx.Done():
		if s.abandon(w) {
			return nil, 0, schedCancelled
		}
		<-w.ready
		s.mu.Lock()
		admitted := w.admitted
		s.mu.Unlock()
		if admitted {
			// Admitted in the same instant the caller gave up; hand the
			// slot straight back so it is not leaked.
			s.releaseFunc(time.Now())()
		}
		return nil, 0, schedCancelled
	}
	s.mu.Lock()
	admitted := w.admitted
	hint := s.retryHintLocked()
	s.mu.Unlock()
	if admitted {
		return s.releaseFunc(time.Now()), 0, schedAdmitted
	}
	return nil, hint, schedExpired
}

// abandon removes a still-queued waiter; false means it already left the
// queue (admitted or expired by a release) and its ready channel is closed.
func (s *scheduler) abandon(w *waiter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.index < 0 {
		return false
	}
	heap.Remove(&s.queue, w.index)
	s.gDepth.Set(int64(len(s.queue)))
	return true
}

// releaseFunc frees the slot taken at start and promotes queued waiters.
func (s *scheduler) releaseFunc(start time.Time) func() {
	return func() {
		elapsed := float64(time.Since(start)) / float64(time.Millisecond)
		s.mu.Lock()
		// EWMA of service time drives the retry hints. α = 0.2: smooth
		// enough to ignore one outlier, fresh enough to track load shifts.
		if s.ewmaMillis == 0 {
			s.ewmaMillis = elapsed
		} else {
			s.ewmaMillis = 0.8*s.ewmaMillis + 0.2*elapsed
		}
		s.running--
		s.gRunning.Set(int64(s.running))
		s.promoteLocked()
		s.mu.Unlock()
	}
}

// promoteLocked fills free slots from the queue in EDF order: a waiter
// whose deadline has passed is rejected and counted here (it can no longer
// be served in time), and the earliest-deadline live waiter is admitted.
// s.mu held.
func (s *scheduler) promoteLocked() {
	now := time.Now()
	for len(s.queue) > 0 && s.running < s.cfg.MaxConcurrent {
		w := heap.Pop(&s.queue).(*waiter)
		if !w.deadline.IsZero() && !now.Before(w.deadline) {
			s.cExpired.Inc()
		} else {
			w.admitted = true
			s.startLocked()
		}
		close(w.ready)
	}
	s.gDepth.Set(int64(len(s.queue)))
}

// queueDepth reports the current wait-queue length (tests, admin).
func (s *scheduler) queueDepth() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}
