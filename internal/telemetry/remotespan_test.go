package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestAddRemoteSpansMerge(t *testing.T) {
	reg := NewRegistry()
	tr := NewTrace(reg, "q1", "census")
	tr.StartSpan(StageBlocks).End(StatusOK)
	tr.AddRemoteSpans("worker:127.0.0.1:9000", []RemoteSpan{
		{Stage: StageWorkerSetup, Status: StatusOK, Millis: 1.5},
		{Stage: StageWorkerExecute, Millis: 40}, // empty status defaults to ok
	})

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	ws := spans[1]
	if ws.Process != "worker:127.0.0.1:9000" || ws.Stage != StageWorkerSetup || ws.Status != StatusOK {
		t.Fatalf("merged span = %+v", ws)
	}
	if spans[2].Status != StatusOK {
		t.Fatalf("empty wire status should default to ok: %+v", spans[2])
	}

	// Merged spans feed the same bucketed stage histograms as local ones.
	snap := reg.Snapshot()
	if h := snap.Histograms["trace.stage."+StageWorkerExecute+".millis"]; h.Count != 1 {
		t.Fatalf("worker stage histogram count = %d", h.Count)
	}

	// And they render in the unsafe trace string with the process label.
	if s := tr.String(); !strings.Contains(s, StageWorkerSetup+"@worker:127.0.0.1:9000=ok/") {
		t.Fatalf("trace string missing labeled worker span: %q", s)
	}
}

func TestAddRemoteSpansSanitizes(t *testing.T) {
	tr := NewTrace(nil, "q1", "census")
	long := strings.Repeat("x", 500)
	tr.AddRemoteSpans(long, []RemoteSpan{
		{Stage: long, Status: long, Millis: 1},
		{Stage: "nan", Millis: math.NaN()},
		{Stage: "inf", Millis: math.Inf(1)},
		{Stage: "neg", Millis: -4},
	})
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("non-finite/negative durations must be dropped; got %d spans", len(spans))
	}
	s := spans[0]
	if len(s.Stage) > maxWireStringLen || len(s.Status) > maxWireStringLen || len(s.Process) > maxWireStringLen {
		t.Fatalf("wire strings not capped: stage=%d status=%d process=%d", len(s.Stage), len(s.Status), len(s.Process))
	}
}

func TestAddRemoteSpansCap(t *testing.T) {
	tr := NewTrace(nil, "q1", "census")
	batch := make([]RemoteSpan, maxRemoteSpans+10)
	for i := range batch {
		batch[i] = RemoteSpan{Stage: StageWorkerExecute, Millis: 1}
	}
	tr.AddRemoteSpans("worker:a", batch)
	tr.AddRemoteSpans("worker:b", []RemoteSpan{{Stage: StageWorkerExecute, Millis: 1}})
	if got := len(tr.Spans()); got != maxRemoteSpans {
		t.Fatalf("retained %d remote spans, cap is %d", got, maxRemoteSpans)
	}
	snap := tr.snapshot("ok")
	if snap.RemoteSpansDropped != 11 {
		t.Fatalf("dropped = %d, want 11", snap.RemoteSpansDropped)
	}
}

func TestTraceStageIsLastOpenedSpan(t *testing.T) {
	tr := NewTrace(nil, "q1", "census")
	if got := tr.stage(); got != StageAdmission {
		t.Fatalf("stage before any span = %q, want admission", got)
	}
	tr.StartSpan(StageAdmission).End(StatusOK)
	budget := tr.StartSpan(StageBudget)
	budget.End(StatusOK) // ending a span does not move the stage
	tr.AddRemoteSpans("worker:a", []RemoteSpan{{Stage: StageWorkerExecute, Millis: 1}})
	if got := tr.stage(); got != StageBudget {
		t.Fatalf("stage = %q, want budget (the last span this process opened)", got)
	}
}

func TestBucketUpperMillis(t *testing.T) {
	bounds := []float64{1, 10, 100}
	cases := []struct{ ms, want float64 }{
		{0, 1}, {1, 1}, {1.01, 10}, {10, 10}, {99, 100}, {100, 100}, {101, -1},
	}
	for _, c := range cases {
		if got := BucketUpperMillis(c.ms, bounds); got != c.want {
			t.Errorf("BucketUpperMillis(%v) = %v, want %v", c.ms, got, c.want)
		}
	}
}
