package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func adminGetAccept(t *testing.T, srv *httptest.Server, path, accept string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestMetricsContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("compman.queries_ok").Inc()
	srv := httptest.NewServer(AdminHandler(AdminConfig{Registry: reg}))
	defer srv.Close()

	// Default (no Accept preference): JSON, for existing dashboards/CLI.
	resp, body := adminGetAccept(t, srv, "/metrics", "")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("default body is not a Snapshot: %v", err)
	}

	// A Prometheus scraper's Accept header gets the text exposition.
	resp, body = adminGetAccept(t, srv, "/metrics", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("prometheus Content-Type = %q", ct)
	}
	if !strings.Contains(body, "compman_queries_ok 1") {
		t.Fatalf("prometheus body missing counter:\n%s", body)
	}

	// Explicit overrides win over Accept.
	resp, _ = adminGetAccept(t, srv, "/metrics?format=prometheus", "application/json")
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("?format=prometheus Content-Type = %q", ct)
	}
	resp, _ = adminGetAccept(t, srv, "/metrics?format=json", "text/plain")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("?format=json Content-Type = %q", ct)
	}
}

// Prometheus-side mirror of TestMetricsExportHasNoRawDurations: the text
// exposition may carry bucket counts and bucket bounds only — no _sum
// series, and no raw observed values.
func TestPrometheusMetricsExportHasNoRawDurations(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("lat", []float64{1, 10}).ObserveMillis(7.777)
	reg.Counter("ok").Inc()
	srv := httptest.NewServer(AdminHandler(AdminConfig{Registry: reg}))
	defer srv.Close()

	_, body := adminGetAccept(t, srv, "/metrics?format=prometheus", "")
	if strings.Contains(body, "_sum") {
		t.Fatalf("prometheus exposition contains a _sum series:\n%s", body)
	}
	if strings.Contains(body, "7.777") {
		t.Fatalf("raw observation leaked into prometheus export:\n%s", body)
	}
	// Histogram samples must be bucket series or the count, nothing else.
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.Fields(line)[0]
		if strings.HasPrefix(name, "lat") {
			if !strings.HasPrefix(name, "lat_bucket{") && name != "lat_count" {
				t.Fatalf("histogram exports unexpected series %q", name)
			}
		}
	}
}

func TestAdminTracesEndpoint(t *testing.T) {
	rec := NewFlightRecorder(8)
	tr := NewTrace(nil, "abc123", "census")
	tr.StartSpan(StageAdmission).End(StatusOK)
	tr.AddRemoteSpans("worker:w1", []RemoteSpan{{Stage: StageWorkerExecute, Millis: 3}})
	rec.Record(tr, "ok", FlightExtra{})

	srv := httptest.NewServer(AdminHandler(AdminConfig{
		Registry: NewRegistry(),
		Recorder: rec,
	}))
	defer srv.Close()

	code, body := adminGet(t, srv, "/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces = %d", code)
	}
	var traces []TraceSnapshot
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].ID != "abc123" || traces[0].Outcome != "ok" {
		t.Fatalf("/traces = %+v", traces)
	}
	var worker *SpanSnapshot
	for i := range traces[0].Spans {
		if traces[0].Spans[i].Process == "worker:w1" {
			worker = &traces[0].Spans[i]
		}
	}
	if worker == nil || worker.Stage != StageWorkerExecute {
		t.Fatalf("worker span missing from /traces: %+v", traces[0].Spans)
	}

	// /flight serves the same record, with its trace embedded.
	code, body = adminGet(t, srv, "/flight")
	var flights []FlightRecord
	if err := json.Unmarshal(body, &flights); err != nil || code != http.StatusOK {
		t.Fatalf("/flight = %d %v", code, err)
	}
	if len(flights) != 1 || flights[0].ID != "abc123" || len(flights[0].Workers) != 1 {
		t.Fatalf("/flight = %+v", flights)
	}
}

func TestAdminQueriesEndpoint(t *testing.T) {
	rec := NewFlightRecorder(8)
	defer rec.Stop()
	tr := NewTrace(nil, "q1", "census")
	rec.Begin(tr)
	defer rec.Record(tr, "ok", FlightExtra{})
	tr.StartSpan(StageNoising)

	srv := httptest.NewServer(AdminHandler(AdminConfig{
		Registry: NewRegistry(),
		Recorder: rec,
	}))
	defer srv.Close()

	code, body := adminGet(t, srv, "/queries")
	if code != http.StatusOK {
		t.Fatalf("/queries = %d", code)
	}
	var live []InflightSnapshot
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || live[0].ID != "q1" || live[0].Stage != StageNoising {
		t.Fatalf("/queries = %+v", live)
	}
}

func TestAdminTracesQueriesEmpty(t *testing.T) {
	srv := httptest.NewServer(AdminHandler(AdminConfig{Registry: NewRegistry()}))
	defer srv.Close()
	for _, path := range []string{"/traces", "/queries", "/flight", "/budget", "/workers"} {
		code, body := adminGet(t, srv, path)
		if code != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
			t.Fatalf("%s = %d %q, want empty JSON array", path, code, body)
		}
	}
}

func TestAdminTracesTenantFilter(t *testing.T) {
	rec := NewFlightRecorder(8)
	for _, c := range []struct{ id, tenant string }{
		{"t-acme-1", "acme"}, {"t-globex", "globex"}, {"t-acme-2", "acme"}, {"t-solo", ""},
	} {
		tr := NewTrace(nil, c.id, "census")
		tr.Tenant = c.tenant
		rec.Record(tr, "ok", FlightExtra{})
	}
	// One open query per tenant too: /queries narrows the same way.
	for _, tenant := range []string{"acme", "globex"} {
		tr := NewTrace(nil, "live-"+tenant, "census")
		tr.Tenant = tenant
		rec.Begin(tr)
	}
	srv := httptest.NewServer(AdminHandler(AdminConfig{
		Registry: NewRegistry(),
		Recorder: rec,
	}))
	defer srv.Close()

	code, body := adminGet(t, srv, "/traces?tenant=acme")
	if code != http.StatusOK {
		t.Fatalf("/traces?tenant=acme = %d", code)
	}
	var traces []TraceSnapshot
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("tenant filter kept %d traces, want 2: %+v", len(traces), traces)
	}
	for _, tr := range traces {
		if tr.Tenant != "acme" {
			t.Fatalf("tenant filter leaked trace %+v", tr)
		}
	}

	// Unknown tenant: empty array, not an error — the filter must not
	// confirm which tenants exist by responding differently.
	code, body = adminGet(t, srv, "/traces?tenant=nosuch")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("/traces?tenant=nosuch = %d %q", code, body)
	}

	// No filter still serves everything.
	code, body = adminGet(t, srv, "/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces = %d", code)
	}
	traces = nil
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 {
		t.Fatalf("unfiltered /traces kept %d traces, want 4", len(traces))
	}

	var flights []FlightRecord
	if _, body = adminGet(t, srv, "/flight?tenant=acme"); json.Unmarshal(body, &flights) != nil || len(flights) != 2 {
		t.Fatalf("/flight?tenant=acme = %s", body)
	}
	var live []InflightSnapshot
	if _, body = adminGet(t, srv, "/queries?tenant=globex"); json.Unmarshal(body, &live) != nil ||
		len(live) != 1 || live[0].ID != "live-globex" {
		t.Fatalf("/queries?tenant=globex = %s", body)
	}
}

func TestAdminWorkersEndpoint(t *testing.T) {
	srv := httptest.NewServer(AdminHandler(AdminConfig{
		Registry: NewRegistry(),
		Workers: func() []WorkerStatus {
			return []WorkerStatus{
				{Addr: "10.0.0.1:7200", Conns: 2, MaxConns: 4, Inflight: 1, Done: 17, Failed: 0},
				{Addr: "10.0.0.2:7200", Conns: 1, MaxConns: 4, Inflight: 0, Done: 9, Failed: 3, Unhealthy: true},
			}
		},
	}))
	defer srv.Close()

	code, body := adminGet(t, srv, "/workers")
	if code != http.StatusOK {
		t.Fatalf("/workers = %d", code)
	}
	var workers []WorkerStatus
	if err := json.Unmarshal(body, &workers); err != nil {
		t.Fatal(err)
	}
	if len(workers) != 2 {
		t.Fatalf("/workers = %+v", workers)
	}
	if workers[0].Addr != "10.0.0.1:7200" || workers[0].Inflight != 1 || workers[0].Done != 17 {
		t.Fatalf("worker row 0 = %+v", workers[0])
	}
	if !workers[1].Unhealthy || workers[1].Failed != 3 {
		t.Fatalf("worker row 1 = %+v", workers[1])
	}
}
