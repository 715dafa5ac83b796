package telemetry

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// The query flight recorder is the one per-query record. An admitted query
// enters its set of open traces (Begin); when it settles, or is refused
// before it ever ran, Record takes it out of that set, snapshots its trace
// once and pushes one FlightRecord into a bounded ring. The admin views
// are projections of that state:
//
//   - /queries is the open set: each query's current stage and elapsed
//     bucket, oldest first, with the watchdog's stuck flag;
//   - /flight is the ring, newest first: the bucketed stage timeline plus
//     which workers ran its blocks, whether stragglers or failovers fired,
//     what it cost in ε and, for refusals, why it was turned away and when
//     to retry (rendered live by `gupt-cli top`);
//   - /traces is the TraceSnapshot each ring entry embeds.
//
// Export discipline: every timing leaves bucketed (§6.3), and the extra
// fields (ε, block counts, worker attribution, retry hints) are values the
// analyst already receives in their response. See DESIGN.md §14.

// DefaultFlightRecorderSize is the ring capacity the server uses.
const DefaultFlightRecorderSize = 256

// FlightWorker summarizes one process's contribution to a query's
// fan-out: how many block dispatches it won, how many duplicates the
// straggler timer fired at it, how many failover retries landed on it,
// and how many of its spans ended in error.
type FlightWorker struct {
	// Process is the span attribution ("worker:<addr>"; empty never
	// appears — local spans are not per-worker).
	Process string `json:"process"`
	// Dispatches counts fanout.dispatch spans attributed to the worker;
	// Executed counts worker.execute spans it shipped back.
	Dispatches int `json:"dispatches,omitempty"`
	Executed   int `json:"executed,omitempty"`
	Stragglers int `json:"stragglers,omitempty"`
	Failovers  int `json:"failovers,omitempty"`
	Errors     int `json:"errors,omitempty"`
}

// FlightExtra carries the per-query facts the trace itself does not hold;
// the server fills it when it records the flight.
type FlightExtra struct {
	// EpsilonCharged is the privacy budget the query consumed (0 for
	// cache hits and refusals).
	EpsilonCharged float64
	// Blocks is the block count the query executed over.
	Blocks int
	// Reason is the refusal reason for queries the scheduler or rate
	// limiter turned away ("queue_full", "deadline_unmeetable",
	// "rate_limited"); empty for served queries.
	Reason string
	// RetryAfterMillis is the retry hint returned with a refusal.
	RetryAfterMillis int64
}

// FlightRecord is one query's flight: its bucketed stage timeline plus
// cost, fan-out attribution, and (for refusals) the refusal reason.
type FlightRecord struct {
	TraceSnapshot
	EpsilonCharged   float64        `json:"epsilonCharged,omitempty"`
	Blocks           int            `json:"blocks,omitempty"`
	Reason           string         `json:"reason,omitempty"`
	RetryAfterMillis int64          `json:"retryAfterMillis,omitempty"`
	Workers          []FlightWorker `json:"workers,omitempty"`
}

// InflightSnapshot is the exported view of one open query: its stage and
// its elapsed-time bucket, never a raw elapsed duration.
type InflightSnapshot struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	// Tenant is the authenticated principal; empty in single-tenant mode.
	Tenant string `json:"tenant,omitempty"`
	Stage  string `json:"stage"`
	// ElapsedBucketMillis is the upper bound of the DefaultLatencyBuckets
	// bucket the query's time since Begin falls in; -1 means beyond the
	// largest bound.
	ElapsedBucketMillis float64 `json:"elapsedBucketMillis"`
	// Stuck reports that the watchdog has flagged this query as past the
	// deployment deadline.
	Stuck bool `json:"stuck,omitempty"`
}

// FlightRecorder holds the open traces and the ring of settled flights.
// Nil-safe like every telemetry type: a nil recorder records nothing.
type FlightRecorder struct {
	mu   sync.Mutex
	open map[*Trace]openQuery
	buf  []FlightRecord
	next int
	n    int

	stopOnce sync.Once
	stop     chan struct{}
}

// openQuery is an admitted query's entry in the open set.
type openQuery struct {
	begun time.Time
	stuck bool // already counted by the watchdog
}

// NewFlightRecorder builds a recorder whose ring holds the last size
// flights; size <= 0 selects DefaultFlightRecorderSize.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	return &FlightRecorder{
		open: make(map[*Trace]openQuery),
		buf:  make([]FlightRecord, size),
		stop: make(chan struct{}),
	}
}

// Begin adds an admitted query's trace to the open set, where the live
// view shows it until Record settles it. Nil-safe on both the recorder and
// the trace.
func (f *FlightRecorder) Begin(tr *Trace) {
	if f == nil || tr == nil {
		return
	}
	begun := time.Now()
	f.mu.Lock()
	f.open[tr] = openQuery{begun: begun}
	f.mu.Unlock()
}

// Record settles a query: it leaves the open set (a refusal, never begun,
// was not in it), and its trace's exported snapshot plus the extra facts
// become the newest flight in the ring. The trace is snapshotted exactly
// once. Nil-safe on both the recorder and the trace.
func (f *FlightRecorder) Record(tr *Trace, outcome string, extra FlightExtra) {
	if f == nil || tr == nil {
		return
	}
	snap := tr.snapshot(outcome)
	rec := FlightRecord{
		TraceSnapshot:    snap,
		EpsilonCharged:   extra.EpsilonCharged,
		Blocks:           extra.Blocks,
		Reason:           extra.Reason,
		RetryAfterMillis: extra.RetryAfterMillis,
		Workers:          flightWorkers(snap.Spans),
	}
	f.mu.Lock()
	delete(f.open, tr)
	f.buf[f.next] = rec
	f.next = (f.next + 1) % len(f.buf)
	if f.n < len(f.buf) {
		f.n++
	}
	f.mu.Unlock()
}

// flightWorkers folds the per-process spans into per-worker summaries,
// in first-appearance order.
func flightWorkers(spans []SpanSnapshot) []FlightWorker {
	var workers []FlightWorker
	idx := map[string]int{}
	get := func(process string) *FlightWorker {
		if i, ok := idx[process]; ok {
			return &workers[i]
		}
		idx[process] = len(workers)
		workers = append(workers, FlightWorker{Process: process})
		return &workers[len(workers)-1]
	}
	for _, s := range spans {
		if s.Process == "" {
			continue
		}
		w := get(s.Process)
		switch s.Stage {
		case StageFanoutDispatch:
			w.Dispatches++
		case StageFanoutStraggler:
			w.Stragglers++
		case StageFanoutFailover:
			w.Failovers++
		case StageWorkerExecute:
			w.Executed++
		}
		if s.Status == StatusError || s.Status == StatusTimeout ||
			strings.HasPrefix(s.Status, "refused") {
			w.Errors++
		}
	}
	return workers
}

// Snapshots returns the recorded flights, newest first: the /flight view.
// Nil-safe.
func (f *FlightRecorder) Snapshots() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, 0, f.n)
	for i := 0; i < f.n; i++ {
		idx := (f.next - 1 - i + len(f.buf)*2) % len(f.buf)
		out = append(out, f.buf[idx])
	}
	return out
}

// Traces returns the trace snapshot of each recorded flight, newest first:
// the /traces view. Nil-safe.
func (f *FlightRecorder) Traces() []TraceSnapshot {
	if f == nil {
		return nil
	}
	flights := f.Snapshots()
	out := make([]TraceSnapshot, len(flights))
	for i := range flights {
		out[i] = flights[i].TraceSnapshot
	}
	return out
}

// Live returns the open queries, oldest first: the /queries view. A
// query's stage is the last span its trace opened (admission before any),
// and its age since Begin is exported as a bucket bound only. Nil-safe.
func (f *FlightRecorder) Live() []InflightSnapshot {
	if f == nil {
		return nil
	}
	type entry struct {
		tr *Trace
		q  openQuery
	}
	f.mu.Lock()
	open := make([]entry, 0, len(f.open))
	for tr, q := range f.open {
		open = append(open, entry{tr, q})
	}
	f.mu.Unlock()
	sort.Slice(open, func(i, j int) bool { return open[i].q.begun.Before(open[j].q.begun) })
	now := time.Now()
	out := make([]InflightSnapshot, len(open))
	for i, e := range open {
		out[i] = InflightSnapshot{
			ID:                  e.tr.ID,
			Dataset:             e.tr.Dataset,
			Tenant:              e.tr.Tenant,
			Stage:               e.tr.stage(),
			ElapsedBucketMillis: BucketUpperMillis(float64(now.Sub(e.q.begun))/float64(time.Millisecond), DefaultLatencyBuckets),
			Stuck:               e.q.stuck,
		}
	}
	return out
}

// StartWatchdog launches the stuck-query sweep: every interval, open
// queries older than deadline are flagged stuck and counted, once each,
// into slow (which may be nil). Returns immediately when deadline or
// interval is zero; Stop ends it. Nil-safe.
func (f *FlightRecorder) StartWatchdog(slow *Counter, deadline, interval time.Duration) {
	if f == nil || deadline <= 0 || interval <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-t.C:
				slow.Add(f.sweep(deadline))
			}
		}
	}()
}

// sweep flags the open queries older than deadline that are not flagged
// yet and returns how many it flagged.
func (f *FlightRecorder) sweep(deadline time.Duration) int64 {
	now := time.Now()
	var flagged int64
	f.mu.Lock()
	for tr, q := range f.open {
		if !q.stuck && now.Sub(q.begun) > deadline {
			q.stuck = true
			f.open[tr] = q
			flagged++
		}
	}
	f.mu.Unlock()
	return flagged
}

// Stop terminates the watchdog goroutine (if any). Nil-safe, idempotent.
func (f *FlightRecorder) Stop() {
	if f == nil {
		return
	}
	f.stopOnce.Do(func() { close(f.stop) })
}

// TraceBuffer is the recorder under the name the bench replay uses.
//
// Deprecated: bench replay only. Use FlightRecorder.
type TraceBuffer = FlightRecorder

// NewTraceBuffer is NewFlightRecorder.
//
// Deprecated: bench replay only. Use NewFlightRecorder.
func NewTraceBuffer(size int) *TraceBuffer { return NewFlightRecorder(size) }

// Add is Record with no extra facts.
//
// Deprecated: bench replay only. Use Record.
func (f *FlightRecorder) Add(tr *Trace, outcome string) { f.Record(tr, outcome, FlightExtra{}) }
