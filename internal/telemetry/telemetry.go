// Package telemetry is GUPT's observability layer: a lock-free metrics
// registry (counters, gauges, fixed-bucket latency histograms), lightweight
// query-lifecycle tracing, and an admin HTTP handler that exposes the
// registry to operators.
//
// The paper's §6.3 timing-attack analysis constrains what this package may
// export. Nothing here ever holds record data or block contents, and every
// exported timing is a fixed-bucket count: /metrics can tell an operator
// "most queries land in the 50–100ms bucket", never "query 17 took
// 73.218ms". Raw per-span durations exist only inside Trace and leave the
// process solely through the explicitly opt-in unsafe_trace audit record
// (compman.ServerConfig.UnsafeTraces), which SECURITY.md documents as
// unsafe to expose to adversarial analysts. See DESIGN.md §8 and SECURITY.md
// ("Telemetry and the observability side channel").
//
// All types are nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, *Trace or *Span are no-ops, so instrumented code paths need no
// "is telemetry on?" branches and cost one predictable branch when disabled.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (occupancy, queue depth).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc and Dec move the gauge by ±1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic instantaneous float64 value. It exists for
// quantities that are genuinely fractional — remaining privacy budget,
// burn rates in ε/minute — never for durations: timings must go through
// bucketed histograms (§6.3), and the Prometheus lint test enforces that
// no float gauge carries a duration-shaped name.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value; 0 on a nil receiver.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. Lookup takes a short read-locked map access;
// the metrics themselves are updated lock-free, so hot paths hoist the
// lookup (instrumented components resolve their counters once at
// construction) and pay only an atomic add per event.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	floatGauges map[string]*FloatGauge
	histograms  map[string]*Histogram
	// stages holds each trace.stage.<stage>.millis histogram under its
	// stage, so a span finds it without building the name.
	stages map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		floatGauges: make(map[string]*FloatGauge),
		histograms:  make(map[string]*Histogram),
		stages:      make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.floatGauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.floatGauges[name]; g == nil {
		g = &FloatGauge{}
		r.floatGauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (milliseconds) on first use. Later calls with a different
// bounds slice return the existing histogram unchanged: bucket layouts are
// fixed for the life of the registry, which is what keeps exports
// side-channel-coarse and snapshots comparable over time.
func (r *Registry) Histogram(name string, boundsMillis []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = NewHistogram(boundsMillis)
		r.histograms[name] = h
	}
	return h
}

// StageHistogram returns the histogram every span of stage feeds,
// trace.stage.<stage>.millis on DefaultLatencyBuckets. It is found by the
// stage itself, so a span's observation builds no name; the name is built
// once, when the stage is first seen. A nil registry returns nil.
func (r *Registry) StageHistogram(stage string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.stages[stage]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	h = r.Histogram("trace.stage."+stage+".millis", DefaultLatencyBuckets)
	r.mu.Lock()
	r.stages[stage] = h
	r.mu.Unlock()
	return h
}

// Snapshot is a point-in-time, JSON-serializable view of a registry. Map
// keys marshal in sorted order, so identical registry states produce
// byte-identical JSON.
type Snapshot struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
	// FloatGauges holds fractional instantaneous values (remaining ε,
	// burn rates); omitted when no float gauge is registered so older
	// snapshot consumers see unchanged JSON.
	FloatGauges map[string]float64           `json:"floatGauges,omitempty"`
	Histograms  map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric. The counters are read individually with
// atomic loads, so the snapshot is per-metric consistent (each value is a
// real value that metric held), not a global atomic cut — fine for
// operator dashboards, and the only option without a stop-the-world lock.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	if len(r.floatGauges) > 0 {
		snap.FloatGauges = make(map[string]float64, len(r.floatGauges))
		for name, g := range r.floatGauges {
			snap.FloatGauges[name] = g.Value()
		}
	}
	for name, h := range r.histograms {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}

// MetricNames returns the sorted names of all registered metrics, mostly
// for tests and debugging.
func (r *Registry) MetricNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.floatGauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.floatGauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
