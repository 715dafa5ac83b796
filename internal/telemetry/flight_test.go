package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 0; i < 5; i++ {
		tr := NewTrace(nil, fmt.Sprintf("t%d", i), "d")
		f.Record(tr, StatusOK, FlightExtra{})
	}
	got := f.Snapshots()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	traces := f.Traces()
	if len(traces) != 3 {
		t.Fatalf("/traces view holds %d, want 3", len(traces))
	}
	// Newest first: t4, t3, t2 — and /traces is the same ring.
	for i, want := range []string{"t4", "t3", "t2"} {
		if got[i].ID != want || traces[i].ID != want {
			t.Fatalf("entry %d = flight %s / trace %s, want %s", i, got[i].ID, traces[i].ID, want)
		}
	}
}

func TestFlightRecordWorkersAndExtras(t *testing.T) {
	f := NewFlightRecorder(0) // default size
	tr := NewTrace(nil, "q1", "census")
	tr.Tenant = "acme"
	tr.StartSpan(StageSchedQueue).End(StatusOK)
	tr.StartSpan(StageSchedDecision).End(StatusOK)
	tr.AddRemoteSpans("worker:a", []RemoteSpan{
		{Stage: StageFanoutDispatch, Status: StatusOK, Millis: 2},
		{Stage: StageWorkerExecute, Status: StatusOK, Millis: 1.5},
	})
	tr.AddRemoteSpans("worker:b", []RemoteSpan{
		{Stage: StageFanoutDispatch, Status: StatusError, Millis: 9},
		{Stage: StageFanoutStraggler, Status: StatusOK, Millis: 3},
		{Stage: StageFanoutFailover, Status: StatusOK, Millis: 1},
	})
	f.Record(tr, "ok", FlightExtra{EpsilonCharged: 0.25, Blocks: 4})

	recs := f.Snapshots()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.ID != "q1" || r.Tenant != "acme" || r.EpsilonCharged != 0.25 || r.Blocks != 4 {
		t.Fatalf("record = %+v", r)
	}
	if len(r.Workers) != 2 {
		t.Fatalf("workers = %+v, want 2", r.Workers)
	}
	a, b := r.Workers[0], r.Workers[1]
	if a.Process != "worker:a" || a.Dispatches != 1 || a.Executed != 1 || a.Errors != 0 {
		t.Fatalf("worker a = %+v", a)
	}
	if b.Process != "worker:b" || b.Dispatches != 1 || b.Stragglers != 1 || b.Failovers != 1 || b.Errors != 1 {
		t.Fatalf("worker b = %+v", b)
	}
}

func TestFlightRecordRefusal(t *testing.T) {
	f := NewFlightRecorder(4)
	tr := NewTrace(nil, "ref1", "census")
	tr.StartSpan(StageSchedDecision).End(StatusRefusedBusy)
	f.Record(tr, "overloaded", FlightExtra{Reason: "queue_full", RetryAfterMillis: 40})

	r := f.Snapshots()[0]
	if r.Outcome != "overloaded" || r.Reason != "queue_full" || r.RetryAfterMillis != 40 {
		t.Fatalf("refusal record = %+v", r)
	}
	if r.EpsilonCharged != 0 {
		t.Fatalf("refusal charged ε: %+v", r)
	}
	if len(r.Spans) != 1 || r.Spans[0].Status != StatusRefusedBusy {
		t.Fatalf("refusal spans = %+v", r.Spans)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	tr := NewTrace(nil, "x", "d")
	f.Begin(tr)
	f.Record(tr, "ok", FlightExtra{})
	f.StartWatchdog(nil, time.Second, time.Second)
	f.Stop()
	if got := f.Snapshots(); got != nil {
		t.Fatalf("nil recorder snapshots = %v", got)
	}
	if got := f.Traces(); got != nil {
		t.Fatalf("nil recorder traces = %v", got)
	}
	if got := f.Live(); got != nil {
		t.Fatalf("nil recorder live view = %v", got)
	}
	// A nil trace is neither opened nor recorded as a zero record.
	f2 := NewFlightRecorder(2)
	f2.Begin(nil)
	f2.Record(nil, "ok", FlightExtra{})
	if got := f2.Snapshots(); len(got) != 0 {
		t.Fatalf("nil trace recorded: %v", got)
	}
	if got := f2.Live(); len(got) != 0 {
		t.Fatalf("nil trace opened: %v", got)
	}
}

// The bench replay still drives the recorder through its old ring name:
// NewTraceBuffer, Add, and the /traces view it feeds.
func addTrace(buf *TraceBuffer, id string) {
	tr := NewTrace(nil, id, "census")
	tr.StartSpan(StageAdmission).End(StatusOK)
	buf.Add(tr, "ok")
}

func TestTraceBufferNewestFirst(t *testing.T) {
	buf := NewTraceBuffer(8)
	for i := 0; i < 3; i++ {
		addTrace(buf, fmt.Sprintf("t%d", i))
	}
	snaps := buf.Traces()
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	for i, want := range []string{"t2", "t1", "t0"} {
		if snaps[i].ID != want {
			t.Fatalf("snapshot order %v, want newest first", []string{snaps[0].ID, snaps[1].ID, snaps[2].ID})
		}
	}
	if snaps[0].Outcome != "ok" || snaps[0].Dataset != "census" {
		t.Fatalf("snapshot = %+v", snaps[0])
	}
	if len(snaps[0].Spans) != 1 || snaps[0].Spans[0].Stage != StageAdmission {
		t.Fatalf("spans = %+v", snaps[0].Spans)
	}
	// Add records a flight with no extra facts.
	if fl := buf.Snapshots()[0]; fl.EpsilonCharged != 0 || fl.Blocks != 0 || fl.Reason != "" {
		t.Fatalf("Add recorded extras: %+v", fl)
	}
}

func TestTraceBufferEviction(t *testing.T) {
	buf := NewTraceBuffer(4)
	for i := 0; i < 10; i++ {
		addTrace(buf, fmt.Sprintf("t%d", i))
	}
	snaps := buf.Traces()
	if len(snaps) != 4 {
		t.Fatalf("ring of 4 holds %d", len(snaps))
	}
	for i, want := range []string{"t9", "t8", "t7", "t6"} {
		if snaps[i].ID != want {
			t.Fatalf("snapshots = %+v, want t9..t6", snaps)
		}
	}
	if got := len(NewTraceBuffer(0).buf); got != DefaultFlightRecorderSize {
		t.Fatalf("default ring holds %d, want %d", got, DefaultFlightRecorderSize)
	}
}

func TestTraceBufferNilSafe(t *testing.T) {
	var buf *TraceBuffer
	buf.Add(NewTrace(nil, "x", "d"), "ok") // must not panic
	if got := buf.Traces(); got != nil {
		t.Fatalf("nil buffer snapshots = %v", got)
	}
	// A real buffer ignores nil traces.
	b := NewTraceBuffer(2)
	b.Add(nil, "ok")
	if got := b.Traces(); len(got) != 0 {
		t.Fatalf("nil trace was buffered: %v", got)
	}
}

// SECURITY.md cites this test: what /traces exports is bucket bounds only.
func TestTraceSnapshotBucketsDurations(t *testing.T) {
	tr := NewTrace(nil, "tid", "census")
	tr.StartSpan(StageBlocks).End(StatusOK)
	tr.AddRemoteSpans("worker:1.2.3.4:9", []RemoteSpan{{Stage: StageWorkerExecute, Millis: 7.777}})
	f := NewFlightRecorder(1)
	f.Record(tr, "ok", FlightExtra{})
	snap := f.Traces()[0]
	for _, s := range snap.Spans {
		if !isBucketBound(s.BucketMillis) {
			t.Fatalf("span %+v exports %v, not a bucket bound", s, s.BucketMillis)
		}
	}
	if !isBucketBound(snap.ElapsedBucketMillis) {
		t.Fatalf("trace elapsed %v is not a bucket bound", snap.ElapsedBucketMillis)
	}
	// The worker span must be present, labeled, and bucketed (7.777 → 10).
	last := snap.Spans[len(snap.Spans)-1]
	if last.Process != "worker:1.2.3.4:9" || last.Stage != StageWorkerExecute {
		t.Fatalf("worker span = %+v", last)
	}
	if last.BucketMillis != 10 {
		t.Fatalf("7.777ms bucketed to %v, want 10", last.BucketMillis)
	}
}

func isBucketBound(ms float64) bool {
	if ms == -1 {
		return true
	}
	for _, b := range DefaultLatencyBuckets {
		if ms == b {
			return true
		}
	}
	return false
}

// The live view is the open set: oldest first, stage = the last span the
// trace opened (admission before any), elapsed bucketed, and Record takes
// a query out of it.
func TestInflightLifecycle(t *testing.T) {
	f := NewFlightRecorder(4)
	q1 := NewTrace(nil, "q1", "census")
	f.Begin(q1)
	time.Sleep(2 * time.Millisecond) // distinct begin times for ordering
	q2 := NewTrace(nil, "q2", "ads")
	q2.Tenant = "acme"
	f.Begin(q2)
	q2.StartSpan(StageBlocks)
	q2.AddRemoteSpans("worker:a", []RemoteSpan{{Stage: StageWorkerExecute, Millis: 1}})

	snaps := f.Live()
	if len(snaps) != 2 {
		t.Fatalf("got %d live queries, want 2", len(snaps))
	}
	if snaps[0].ID != "q1" || snaps[1].ID != "q2" {
		t.Fatalf("not oldest-first: %+v", snaps)
	}
	if snaps[0].Stage != StageAdmission {
		t.Fatalf("new query stage = %q, want admission", snaps[0].Stage)
	}
	// A merged worker span does not move the stage: the query is still in
	// the blocks stage its own process opened.
	if snaps[1].Stage != StageBlocks || snaps[1].Dataset != "ads" || snaps[1].Tenant != "acme" {
		t.Fatalf("q2 = %+v", snaps[1])
	}
	// Elapsed is exported as a bucket bound, never raw.
	for _, s := range snaps {
		if !isBucketBound(s.ElapsedBucketMillis) {
			t.Fatalf("elapsed %v is not a bucket bound", s.ElapsedBucketMillis)
		}
	}

	f.Record(q1, "ok", FlightExtra{})
	f.Record(q1, "ok", FlightExtra{}) // settling twice leaves the open set alone
	if snaps = f.Live(); len(snaps) != 1 || snaps[0].ID != "q2" {
		t.Fatalf("after Record: %+v", snaps)
	}
	f.Record(q2, "ok", FlightExtra{})
	if snaps = f.Live(); len(snaps) != 0 {
		t.Fatalf("after both settled: %+v", snaps)
	}
	// A refusal is recorded without ever being begun.
	f.Record(NewTrace(nil, "r1", "census"), "overloaded", FlightExtra{Reason: "queue_full"})
	if got := f.Snapshots(); len(got) != 4 || got[0].ID != "r1" || len(f.Live()) != 0 {
		t.Fatalf("ring = %+v, live = %+v", got, f.Live())
	}
	f.Stop()
}

func TestInflightWatchdog(t *testing.T) {
	reg := NewRegistry()
	slow := reg.Counter("compman.queries_slow")
	f := NewFlightRecorder(4)
	defer f.Stop()

	tr := NewTrace(nil, "q1", "census")
	f.Begin(tr)
	f.StartWatchdog(slow, time.Millisecond, 5*time.Millisecond)

	deadline := time.Now().Add(2 * time.Second)
	for slow.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never flagged the stuck query")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The query is counted once, not once per sweep.
	time.Sleep(25 * time.Millisecond)
	if got := slow.Value(); got != 1 {
		t.Fatalf("stuck query counted %d times", got)
	}
	if snaps := f.Live(); len(snaps) != 1 || !snaps[0].Stuck {
		t.Fatalf("snapshot not marked stuck: %+v", snaps)
	}
	// Settling the query ends its watch: nothing more is counted.
	f.Record(tr, "ok", FlightExtra{})
	time.Sleep(25 * time.Millisecond)
	if got := slow.Value(); got != 1 || len(f.Live()) != 0 {
		t.Fatalf("after settle: counted %d, live %+v", got, f.Live())
	}
}

// Queries begin and settle on their own goroutines while the watchdog
// sweeps and the admin views read: run under -race.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8)
	f.StartWatchdog(nil, time.Nanosecond, time.Millisecond)
	defer f.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := NewTrace(nil, fmt.Sprintf("g%d-%d", g, i), "census")
				f.Begin(tr)
				tr.StartSpan(StageBlocks).End(StatusOK)
				f.Record(tr, "ok", FlightExtra{})
			}
		}(g)
	}
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				_, _, _ = f.Live(), f.Traces(), f.Snapshots()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-read
	if live := f.Live(); len(live) != 0 {
		t.Fatalf("%d queries left open after all settled", len(live))
	}
	if got := len(f.Snapshots()); got != 8 {
		t.Fatalf("ring holds %d, want 8", got)
	}
}

func TestInflightNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Begin(NewTrace(nil, "q", "d"))
	f.StartWatchdog(nil, time.Second, time.Second)
	f.Stop()
	f.Stop()
	if got := f.Live(); got != nil {
		t.Fatalf("nil recorder live view = %v", got)
	}
	// A watchdog without a counter still sweeps, and Stop is idempotent.
	r := NewFlightRecorder(1)
	r.Begin(NewTrace(nil, "q", "d"))
	r.StartWatchdog(nil, time.Nanosecond, time.Millisecond)
	for deadline := time.Now().Add(2 * time.Second); !r.Live()[0].Stuck; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("counterless watchdog never flagged the query")
		}
	}
	r.Stop()
	r.Stop()
}
