package telemetry

import (
	"math"
	"testing"
	"time"
)

// planeClock gives tests a deterministic clock for the plane's EWMA and
// sliding-window arithmetic.
func planeClock(p *BudgetPlane) *time.Time {
	now := time.Unix(1_700_000_000, 0)
	p.now = func() time.Time { return now }
	return &now
}

func TestBudgetPlaneSeedAndRows(t *testing.T) {
	reg := NewRegistry()
	p := NewBudgetPlane(reg)
	planeClock(p)
	p.Seed("", "census", 0.5, 2.0)
	p.Seed("acme", "census", 0.1, 1.0)
	p.Seed("acme", "wages", 0, 0) // unlimited

	rows := p.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Sorted dataset then tenant, global row first.
	if rows[0].Dataset != "census" || rows[0].Tenant != "" {
		t.Fatalf("row 0 = %+v, want census global", rows[0])
	}
	if rows[0].EpsilonRemaining != 1.5 || rows[0].EpsilonTotal != 2.0 {
		t.Fatalf("row 0 budget = %+v", rows[0])
	}
	if rows[1].Tenant != "acme" || rows[1].EpsilonRemaining != 0.9 {
		t.Fatalf("row 1 = %+v", rows[1])
	}
	if !rows[2].Unlimited || rows[2].SecondsToExhaustion != 0 {
		t.Fatalf("row 2 = %+v, want unlimited / no forecast", rows[2])
	}
	// Seeding must not count charges.
	if rows[0].Charges != 0 {
		t.Fatalf("seed counted a charge: %+v", rows[0])
	}
	// Gauges published.
	if got := reg.FloatGauge("budget.remaining_epsilon.census").Value(); got != 1.5 {
		t.Fatalf("remaining gauge = %v, want 1.5", got)
	}
	if got := reg.FloatGauge("budget.remaining_epsilon.census.tenant.acme").Value(); got != 0.9 {
		t.Fatalf("tenant remaining gauge = %v, want 0.9", got)
	}
}

func TestBudgetPlaneBurnRateEWMA(t *testing.T) {
	p := NewBudgetPlane(nil)
	now := planeClock(p)

	// First charge: rate initialized pessimistically against the window.
	p.Observe("", "d", 0.1, 0.1, 10)
	rows := p.Rows()
	wantInit := 0.1 / DefaultBurnWindow.Seconds() * 60
	if math.Abs(rows[0].BurnPerMinute-wantInit) > 1e-12 {
		t.Fatalf("initial burn = %v, want %v", rows[0].BurnPerMinute, wantInit)
	}

	// Steady burning: 0.1ε every 10s → instantaneous 0.6 ε/min; the EWMA
	// must converge toward it from the pessimistic start.
	for i := 0; i < 60; i++ {
		*now = now.Add(10 * time.Second)
		p.Observe("", "d", 0.1, 0.1*float64(i+2), 10)
	}
	rows = p.Rows()
	if math.Abs(rows[0].BurnPerMinute-0.6) > 0.01 {
		t.Fatalf("steady-state burn = %v, want ~0.6 ε/min", rows[0].BurnPerMinute)
	}
	// Forecast: remaining ≈ 10-6.2=3.8ε at 0.01 ε/s → ~380s.
	sec := rows[0].SecondsToExhaustion
	if sec < 300 || sec > 450 {
		t.Fatalf("forecast = %ds, want ≈380s", sec)
	}
	if rows[0].Charges != 61 {
		t.Fatalf("charges = %d, want 61", rows[0].Charges)
	}
}

// A burst of back-to-back charges must read as ε-over-the-window, not
// ε-over-the-microsecond-gap: the burn rate is an EWMA of the
// window-average rate, so four charges 2ms apart cannot spike it by
// orders of magnitude (the regression that motivated this: a 4-query
// burst of 0.2ε reported ~731 ε/min against a true window rate of ~0.4).
func TestBudgetPlaneBurstDoesNotSpikeBurnRate(t *testing.T) {
	p := NewBudgetPlane(nil)
	now := planeClock(p)
	for i := 0; i < 4; i++ {
		*now = now.Add(2 * time.Millisecond)
		p.Observe("", "d", 0.2, 0.2*float64(i+1), 10)
	}
	rows := p.Rows()
	// Window holds all 0.8ε → the window-average ceiling is
	// 0.8/300s = 0.16 ε/min; the EWMA can only be at or below it.
	ceiling := 0.8 / DefaultBurnWindow.Seconds() * 60
	if rows[0].BurnPerMinute > ceiling+1e-12 {
		t.Fatalf("burst burn = %v ε/min, want <= window-average %v", rows[0].BurnPerMinute, ceiling)
	}
	if rows[0].BurnPerMinute <= 0 {
		t.Fatalf("burst burn = %v, want positive", rows[0].BurnPerMinute)
	}
}

func TestBudgetPlaneSlidingWindow(t *testing.T) {
	p := NewBudgetPlane(nil)
	now := planeClock(p)
	p.Observe("", "d", 0.3, 0.3, 10) // will age out
	*now = now.Add(DefaultBurnWindow + time.Second)
	p.Observe("", "d", 0.1, 0.4, 10)
	*now = now.Add(time.Minute)
	p.Observe("", "d", 0.2, 0.6, 10)

	rows := p.Rows()
	if math.Abs(rows[0].WindowEpsilon-0.3) > 1e-12 {
		t.Fatalf("window ε = %v, want 0.3 (first charge aged out)", rows[0].WindowEpsilon)
	}
	if rows[0].WindowSeconds != int64(DefaultBurnWindow.Seconds()) {
		t.Fatalf("window seconds = %d", rows[0].WindowSeconds)
	}
	if rows[0].EpsilonSpent != 0.6 {
		t.Fatalf("spent = %v, want authoritative 0.6", rows[0].EpsilonSpent)
	}
}

// The window costs memory per second that saw a charge, not per charge: a
// long-running server at any query rate holds at most window-seconds
// samples per row, and the coalesced samples still sum to the ε charged.
func TestBudgetPlaneWindowBoundedByItsSeconds(t *testing.T) {
	p := NewBudgetPlane(nil)
	now := planeClock(p)
	const perSecond = 200
	windowSec := int(DefaultBurnWindow.Seconds())
	spent := 0.0
	for s := 0; s < 2*windowSec; s++ {
		for i := 0; i < perSecond; i++ {
			spent += 0.001
			p.Observe("", "d", 0.001, spent, 1e6)
			*now = now.Add(time.Second / perSecond)
		}
		if n := len(p.rows[burnKey{"", "d"}].window); n > windowSec {
			t.Fatalf("after %d s the window holds %d samples, want <= %d", s+1, n, windowSec)
		}
	}
	rows := p.Rows()
	want := 0.001 * perSecond * float64(windowSec)
	if math.Abs(rows[0].WindowEpsilon-want) > 0.001*perSecond+1e-9 {
		t.Fatalf("window ε = %v, want %v to within one second of charges", rows[0].WindowEpsilon, want)
	}
	if rows[0].Charges != 2*int64(windowSec)*perSecond {
		t.Fatalf("charges = %d", rows[0].Charges)
	}
}

func TestBudgetPlaneThresholdEvents(t *testing.T) {
	p := NewBudgetPlane(nil)
	planeClock(p)
	var events []BudgetEvent
	p.SetOnEvent(func(ev BudgetEvent) { events = append(events, ev) })

	// 10ε total. Spend to 5.2 remaining 4.8 → crosses 0.5 only.
	p.Observe("t1", "d", 5.2, 5.2, 10)
	if len(events) != 1 || events[0].Fraction != 0.5 {
		t.Fatalf("events = %+v, want one 0.5 crossing", events)
	}
	if events[0].Tenant != "t1" || events[0].EpsilonRemaining != 4.8 {
		t.Fatalf("event = %+v", events[0])
	}
	// Spend to 0.05 remaining → crosses 0.25, 0.10 in one charge; 0.5 does
	// not re-fire.
	events = nil
	p.Observe("t1", "d", 4.0, 9.2, 10)
	if len(events) != 2 || events[0].Fraction != 0.25 || events[1].Fraction != 0.10 {
		t.Fatalf("events = %+v, want 0.25 then 0.10", events)
	}
	// Exhaust: the remaining two thresholds fire, each exactly once.
	events = nil
	p.Observe("t1", "d", 0.8, 10, 10)
	if len(events) != 2 || events[0].Fraction != 0.05 || events[1].Fraction != 0.01 {
		t.Fatalf("events = %+v, want 0.05 then 0.01", events)
	}
	events = nil
	p.Observe("t1", "d", 0, 10, 10)
	if len(events) != 0 {
		t.Fatalf("thresholds re-fired: %+v", events)
	}
	rows := p.Rows()
	if len(rows[0].ThresholdsCrossed) != 5 {
		t.Fatalf("crossed = %v, want all five", rows[0].ThresholdsCrossed)
	}
}

func TestBudgetPlaneNilSafe(t *testing.T) {
	var p *BudgetPlane
	p.Seed("", "d", 0, 1)
	p.Observe("", "d", 0.1, 0.1, 1)
	p.SetOnEvent(func(BudgetEvent) {})
	if rows := p.Rows(); rows != nil {
		t.Fatalf("nil plane rows = %v", rows)
	}
}

func TestBudgetPlaneGaugesAreSafeForExport(t *testing.T) {
	// The plane's gauges carry ε values, never durations; their names must
	// not look duration-shaped or the no-raw-durations lint would (rightly)
	// reject the whole registry.
	reg := NewRegistry()
	p := NewBudgetPlane(reg)
	planeClock(p)
	p.Observe("acme", "census", 0.5, 0.5, 2)
	for _, name := range reg.MetricNames() {
		if looksDurationNamed(name) {
			t.Fatalf("burn-down gauge %q is duration-named", name)
		}
	}
}
