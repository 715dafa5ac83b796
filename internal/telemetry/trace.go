package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// The canonical query-lifecycle stages, in pipeline order. Every query
// produces at most one span per stage: a settled charge runs the engine
// once. A session's trace repeats the engine stages once per member, in
// member order.
const (
	StageAdmission   = "admission"   // decode, program/range resolution, chamber setup
	StageBudget      = "budget"      // privacy charge against the dataset accountant
	StagePartition   = "partition"   // partitioning, resampling, budget split, range prep
	StageBlocks      = "blocks"      // block executions across chambers
	StageAggregation = "aggregation" // range tightening, clamping, block averaging
	StageNoising     = "noising"     // Laplace noise
	StageRelease     = "release"     // response assembly
)

// Worker-side stages, recorded inside gupt-worker and shipped back to the
// server over the compman wire (see RemoteSpan).
const (
	StageWorkerSetup   = "worker.setup"   // program resolution + chamber construction
	StageWorkerExecute = "worker.execute" // one block execution inside the chamber
)

// Scheduler and fan-out stages, recorded server-side around admission and
// block dispatch. Every query that reaches the scheduler carries a
// StageSchedQueue span covering its time in admission (near zero when a
// slot was free) and then a StageSchedDecision span; a refused query's
// trace ends after the decision.
const (
	StageSchedQueue    = "sched.queue"    // time in admission, queued or not
	StageSchedDecision = "sched.decision" // the admit/refuse verdict itself
	// StageFanoutDispatch is one block's dispatch to one worker; the span's
	// Process carries the worker attribution ("worker:<addr>").
	StageFanoutDispatch = "fanout.dispatch"
	// StageFanoutStraggler is a duplicate dispatch fired by the straggler
	// timer; StageFanoutFailover is a retry after a transport failure.
	StageFanoutStraggler = "fanout.straggler"
	StageFanoutFailover  = "fanout.failover"
)

// Span statuses.
const (
	StatusOK      = "ok"
	StatusError   = "error"
	StatusTimeout = "timeout"
	// Scheduler-decision statuses: the refusal reason rides on the
	// StageSchedDecision span so a refused query's trace is
	// self-explanatory.
	StatusRefusedBusy    = "refused_busy"    // admission queue full
	StatusRefusedExpired = "refused_expired" // deadline unmeetable given queue state
	StatusCancelled      = "cancelled"       // caller went away while queued
)

// Span is one stage of a query's lifecycle. Its raw duration stays inside
// the process: the registry sees only the bucketed histogram observation,
// and the duration is printed only by Trace.String for the opt-in
// unsafe_trace audit record.
type Span struct {
	Stage  string
	Status string
	// Process names the process that recorded the span; empty means this
	// process (the server). Spans merged from workers carry
	// "worker:<addr>".
	Process  string
	Duration time.Duration

	tr    *Trace
	start time.Time
	done  bool
}

// End closes the span with the given status. Safe to call on a nil span;
// calling End twice keeps the first result.
func (s *Span) End(status string) {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.Status = status
	s.Duration = time.Since(s.start)
	if s.tr != nil {
		s.tr.reg.StageHistogram(s.Stage).Observe(s.Duration)
	}
}

// RemoteSpan is the wire form of a span recorded in another process of the
// platform (a gupt-worker) and shipped back to the server for merging.
// Millis is a raw duration — acceptable on the platform-internal
// server↔worker wire (both ends are trusted components), but it must never
// be exported as-is: merged spans leave the server only through the
// bucketed histograms, the bucketed /traces snapshots, or the opt-in
// unsafe trace sink.
type RemoteSpan struct {
	Stage  string  `json:"stage"`
	Status string  `json:"status,omitempty"`
	Millis float64 `json:"millis"`
}

// maxRemoteSpans caps how many worker spans one trace retains: a query over
// thousands of blocks would otherwise balloon every trace with two spans
// per block. Overflow is counted, not silently dropped.
const maxRemoteSpans = 128

// remoteChunk is how many merged spans share one allocation (2 KiB): a
// trace holds at most four.
const remoteChunk = maxRemoteSpans / 4

// remoteSpan is a merged span as a trace keeps it. It arrives complete, so
// it carries none of a local Span's bookkeeping, and remoteChunk of them
// share one allocation. after is how many local spans were opened before
// it arrived, which places it among them in start order.
type remoteSpan struct {
	process, stage, status string
	dur                    time.Duration
	after                  int
}

// maxWireStringLen bounds stage/status strings accepted off the wire; the
// worker is trusted, but a corrupted frame must not grow unbounded labels.
const maxWireStringLen = 64

// Trace records the lifecycle of one query as a sequence of stage spans.
// A trace never holds record data, block contents, query parameters or
// outputs — only stage names, statuses and durations.
type Trace struct {
	// ID is an operator-side correlation id: a random 128-bit hex string
	// (NewTraceID), never anything analyst-supplied, unique across
	// restarts and across instances.
	ID string
	// Dataset names the dataset the query targeted.
	Dataset string
	// Tenant is the authenticated principal the query ran as; empty in
	// single-tenant deployments. Set before the first span starts. It is an
	// id only — key material never reaches the telemetry layer.
	Tenant string

	mu        sync.Mutex
	reg       *Registry
	start     time.Time
	spans     []*Span // this process's spans, in start order
	lastStage string  // stage of the last span StartSpan opened
	// remote holds the merged spans in arrival order, remoteChunk to an
	// array; remoteCount of them are filled.
	remote        []*[remoteChunk]remoteSpan
	remoteCount   int
	remoteDropped int
}

// NewTrace starts a trace. reg may be nil; span durations then feed no
// histograms but the trace still records. A nil return never happens — the
// nil-safety lives on the methods so callers can hold a nil *Trace when
// tracing is off entirely.
func NewTrace(reg *Registry, id, dataset string) *Trace {
	return &Trace{ID: id, Dataset: dataset, reg: reg, start: time.Now()}
}

// StartSpan opens a span for the given stage. On a nil trace it returns a
// nil span, whose End is a no-op.
func (t *Trace) StartSpan(stage string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Stage: stage, tr: t, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.lastStage = stage
	t.mu.Unlock()
	return s
}

// stage is where the query currently is: the stage of the last span this
// process opened (merged worker spans do not count), StageAdmission before
// any.
func (t *Trace) stage() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lastStage == "" {
		return StageAdmission
	}
	return t.lastStage
}

// AddRemoteSpans merges spans recorded by another process (a worker) into
// the trace, labeled with that process's name. The spans arrive complete —
// they are appended as already-ended spans — and their durations feed the
// same bucketed trace.stage.* histograms as local spans. Wire-origin
// strings are length-capped and non-finite or negative durations dropped,
// so a corrupted reply cannot poison the trace. At most maxRemoteSpans
// remote spans are retained per trace; the overflow is counted and
// reported in the snapshot. Nil-safe.
func (t *Trace) AddRemoteSpans(process string, spans []RemoteSpan) {
	if t == nil || len(spans) == 0 {
		return
	}
	process = capString(process)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rs := range spans {
		if math.IsNaN(rs.Millis) || math.IsInf(rs.Millis, 0) || rs.Millis < 0 {
			continue
		}
		if t.remoteCount >= maxRemoteSpans {
			t.remoteDropped++
			continue
		}
		status := capString(rs.Status)
		if status == "" {
			status = StatusOK
		}
		if t.remoteCount%remoteChunk == 0 {
			t.remote = append(t.remote, new([remoteChunk]remoteSpan))
		}
		m := &t.remote[t.remoteCount/remoteChunk][t.remoteCount%remoteChunk]
		t.remoteCount++
		*m = remoteSpan{
			process: process,
			stage:   capString(rs.Stage),
			status:  status,
			dur:     time.Duration(rs.Millis * float64(time.Millisecond)),
			after:   len(t.spans),
		}
		t.reg.StageHistogram(m.stage).Observe(m.dur)
	}
}

// walk calls f with every span in start order, local and merged: each
// merged span comes after the local spans opened before it arrived. local
// is the span itself for a local span and nil for a merged one, which s
// stands for as an ended span. t.mu must be held.
func (t *Trace) walk(f func(s Span, local *Span)) {
	r := 0
	for i := 0; i <= len(t.spans); i++ {
		for ; r < t.remoteCount; r++ {
			m := &t.remote[r/remoteChunk][r%remoteChunk]
			if m.after > i {
				break
			}
			f(Span{Stage: m.stage, Status: m.status, Process: m.process, Duration: m.dur, done: true}, nil)
		}
		if i < len(t.spans) {
			f(*t.spans[i], t.spans[i])
		}
	}
}

func capString(s string) string {
	if len(s) > maxWireStringLen {
		return s[:maxWireStringLen]
	}
	return s
}

// Spans returns the spans recorded so far, in start order.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.spans)+t.remoteCount)
	t.walk(func(s Span, local *Span) {
		if local == nil {
			local = &s
		}
		out = append(out, local)
	})
	return out
}

// Elapsed is the wall-clock time since the trace started.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// String renders the trace with raw per-span durations. This is the ONLY
// place raw durations leave the telemetry layer, and it must only ever be
// written to the opt-in unsafe_trace audit record (guptd -unsafe-trace-log;
// see SECURITY.md): handing this string to an analyst reopens the §6.3
// timing side channel.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s dataset=%s", t.ID, t.Dataset)
	if t.Tenant != "" {
		fmt.Fprintf(&sb, " tenant=%s", t.Tenant)
	}
	t.walk(func(s Span, _ *Span) {
		status := s.Status
		if !s.done {
			status = "open"
		}
		if s.Process != "" {
			fmt.Fprintf(&sb, " %s@%s=%s/%s", s.Stage, s.Process, status, s.Duration.Round(time.Microsecond))
		} else {
			fmt.Fprintf(&sb, " %s=%s/%s", s.Stage, status, s.Duration.Round(time.Microsecond))
		}
	})
	return sb.String()
}

// BucketUpperMillis maps a raw duration in milliseconds onto the upper
// bound of the latency bucket it falls in — the only resolution at which
// timings may leave the process (§6.3). Overflow (above the largest bound)
// returns -1, meaning "beyond the coarsest bucket".
func BucketUpperMillis(ms float64, boundsMillis []float64) float64 {
	for _, b := range boundsMillis {
		if ms <= b {
			return b
		}
	}
	return -1
}

// SpanSnapshot is the exported view of one span: stage, status, process,
// and the span's latency bucket — never its raw duration.
type SpanSnapshot struct {
	// Process is empty for server-side spans, "worker:<addr>" for merged
	// worker spans.
	Process string `json:"process,omitempty"`
	Stage   string `json:"stage"`
	Status  string `json:"status"`
	// BucketMillis is the upper bound of the DefaultLatencyBuckets bucket
	// the span's duration fell in; -1 means above the largest bound.
	BucketMillis float64 `json:"bucketMillis"`
}

// TraceSnapshot is the exported view of one completed trace, served at
// /traces. All durations are bucketed; the start time is truncated to
// whole seconds so consecutive snapshots cannot be differenced into a
// sub-second timing channel.
type TraceSnapshot struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	// Tenant is the authenticated principal; empty in single-tenant mode.
	Tenant string `json:"tenant,omitempty"`
	// Outcome is the query's terminal state: ok, degraded, error, aborted
	// or budget_refused.
	Outcome string `json:"outcome"`
	// StartUnix is the trace start, whole seconds.
	StartUnix int64 `json:"startUnix"`
	// ElapsedBucketMillis is the whole query's latency bucket (-1 =
	// above the largest bound).
	ElapsedBucketMillis float64 `json:"elapsedBucketMillis"`
	// RemoteSpansDropped counts worker spans beyond the per-trace cap.
	RemoteSpansDropped int            `json:"remoteSpansDropped,omitempty"`
	Spans              []SpanSnapshot `json:"spans"`
}

// snapshot captures the trace's exported form; outcome is supplied by the
// caller (the server knows how the query ended, the trace does not).
func (t *Trace) snapshot(outcome string) TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	elapsed := t.Elapsed()
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TraceSnapshot{
		ID:                  t.ID,
		Dataset:             t.Dataset,
		Tenant:              t.Tenant,
		Outcome:             outcome,
		StartUnix:           t.start.Unix(),
		ElapsedBucketMillis: BucketUpperMillis(float64(elapsed)/float64(time.Millisecond), DefaultLatencyBuckets),
		RemoteSpansDropped:  t.remoteDropped,
		Spans:               make([]SpanSnapshot, 0, len(t.spans)+t.remoteCount),
	}
	t.walk(func(s Span, _ *Span) {
		status := s.Status
		if !s.done {
			status = "open"
		}
		snap.Spans = append(snap.Spans, SpanSnapshot{
			Process:      s.Process,
			Stage:        s.Stage,
			Status:       status,
			BucketMillis: BucketUpperMillis(float64(s.Duration)/float64(time.Millisecond), DefaultLatencyBuckets),
		})
	})
	return snap
}
