package telemetry

import (
	"sort"
	"sync"
	"time"
)

// The ε burn-down plane: a live view of how fast each principal is
// consuming privacy budget, per dataset. Every successful charge feeds a
// row keyed by (tenant, dataset) — tenant "" is the dataset's global
// accountant — and each row tracks the remaining budget, an EWMA burn
// rate, the ε burned inside a sliding window, and a time-to-exhaustion
// forecast. Crossing a remaining-budget threshold fires a one-shot event
// the server turns into an audit record.
//
// Everything here is ε arithmetic, not timing: remaining budget and burn
// rates are exact values the analyst already learns through budget
// refusals and /datasets, so exporting them raw does not widen the §6.3
// side channel (timings stay bucketed elsewhere).

// DefaultBurnWindow is the sliding window over which WindowEpsilon is
// summed and the window burn rate computed.
const DefaultBurnWindow = 5 * time.Minute

// burnThresholds are the remaining-budget fractions that fire a one-shot
// BudgetEvent as a row's remaining/total crosses below them, in firing
// order.
var burnThresholds = []float64{0.5, 0.25, 0.10, 0.05, 0.01}

// ewmaBurnAlpha weights the newest per-charge burn-rate observation; the
// same smoothing constant the scheduler uses for service times.
const ewmaBurnAlpha = 0.2

// BudgetEvent is a threshold crossing: the row's remaining budget dropped
// below Fraction of its total for the first time.
type BudgetEvent struct {
	// Tenant is empty for the dataset's global accountant row.
	Tenant  string
	Dataset string
	// Fraction is the remaining-budget threshold crossed (0.25 = "less
	// than a quarter of the budget is left").
	Fraction         float64
	EpsilonRemaining float64
	EpsilonTotal     float64
}

// BudgetRow is the exported view of one burn-down row, served at /budget.
type BudgetRow struct {
	// Tenant is empty for the dataset's global accountant.
	Tenant  string `json:"tenant,omitempty"`
	Dataset string `json:"dataset"`
	// Unlimited marks a row with no finite budget (a tenant with no quota
	// on this dataset); the ε fields then carry only Spent.
	Unlimited        bool    `json:"unlimited,omitempty"`
	EpsilonTotal     float64 `json:"epsilonTotal,omitempty"`
	EpsilonSpent     float64 `json:"epsilonSpent"`
	EpsilonRemaining float64 `json:"epsilonRemaining,omitempty"`
	// Charges counts the successful charges observed by the plane.
	Charges int64 `json:"charges"`
	// BurnPerMinute is the EWMA burn rate in ε per minute.
	BurnPerMinute float64 `json:"burnPerMinute"`
	// WindowEpsilon is the ε burned inside the sliding window ending now;
	// WindowSeconds is that window's length.
	WindowEpsilon float64 `json:"windowEpsilon"`
	WindowSeconds int64   `json:"windowSeconds"`
	// SecondsToExhaustion forecasts when the remaining budget runs out at
	// the current EWMA burn rate; 0 means no forecast (no finite budget,
	// or no burn observed yet).
	SecondsToExhaustion int64 `json:"secondsToExhaustion,omitempty"`
	// ThresholdsCrossed lists the remaining-budget fractions already
	// crossed, largest first.
	ThresholdsCrossed []float64 `json:"thresholdsCrossed,omitempty"`
}

type burnKey struct{ tenant, dataset string }

type burnRow struct {
	unlimited bool
	total     float64
	spent     float64
	charges   int64
	// ratePerSec is the EWMA burn rate in ε/second.
	ratePerSec float64
	// window holds the ε charged inside the sliding window, one sample per
	// wall-clock second that saw a charge, oldest first — so its length is
	// bounded by the window's seconds, not by the query rate. windowSum is
	// the samples' ε total, maintained incrementally.
	window    []burnSample
	windowSum float64
	// crossed[i] is true once burnThresholds[i] has fired.
	crossed [5]bool

	remainingGauge *FloatGauge
	burnGauge      *FloatGauge
}

// burnSample is the ε charged during one wall-clock second.
type burnSample struct {
	sec int64 // Unix second
	eps float64
}

// BudgetPlane aggregates burn-down rows. The zero value is unusable; use
// NewBudgetPlane. All methods are nil-safe so the plane can be absent
// (single-tenant guptd without an admin plane, library embedders).
type BudgetPlane struct {
	mu      sync.Mutex
	reg     *Registry
	window  time.Duration
	now     func() time.Time
	onEvent func(BudgetEvent)
	rows    map[burnKey]*burnRow
}

// NewBudgetPlane builds a plane that publishes per-row float gauges into
// reg (which may be nil). The sliding window is DefaultBurnWindow.
func NewBudgetPlane(reg *Registry) *BudgetPlane {
	return &BudgetPlane{
		reg:    reg,
		window: DefaultBurnWindow,
		now:    time.Now,
		rows:   make(map[burnKey]*burnRow),
	}
}

// SetOnEvent registers the threshold-crossing callback. It is invoked
// synchronously from Observe with the plane's lock released, so it may
// append audit records. Nil-safe.
func (p *BudgetPlane) SetOnEvent(fn func(BudgetEvent)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.onEvent = fn
	p.mu.Unlock()
}

// metricSuffix names a row's gauges: "<dataset>" for the global row,
// "<dataset>.tenant.<tenant>" for a tenant row.
func metricSuffix(k burnKey) string {
	if k.tenant == "" {
		return k.dataset
	}
	return k.dataset + ".tenant." + k.tenant
}

func (p *BudgetPlane) rowLocked(tenant, dataset string) *burnRow {
	k := burnKey{tenant, dataset}
	r := p.rows[k]
	if r == nil {
		r = &burnRow{
			remainingGauge: p.reg.FloatGauge("budget.remaining_epsilon." + metricSuffix(k)),
			burnGauge:      p.reg.FloatGauge("budget.burn_epsilon_per_minute." + metricSuffix(k)),
		}
		p.rows[k] = r
	}
	return r
}

// Seed creates or refreshes a row from authoritative accountant state
// without counting a charge: the server seeds global rows at dataset
// registration and tenant rows at grant time, so /budget is populated
// before the first query. total <= 0 marks the row unlimited. Nil-safe.
func (p *BudgetPlane) Seed(tenant, dataset string, spent, total float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.rowLocked(tenant, dataset)
	r.spent = spent
	r.total = total
	r.unlimited = total <= 0
	p.publishLocked(r)
}

// Observe records one successful charge of eps against the row, with the
// authoritative post-charge spent/total taken from the accountant (so
// refunds and concurrent charges can never drift the plane). Fires
// threshold events after releasing the lock. Nil-safe.
func (p *BudgetPlane) Observe(tenant, dataset string, eps, spent, total float64) {
	if p == nil || eps < 0 {
		return
	}
	p.mu.Lock()
	now := p.now()
	r := p.rowLocked(tenant, dataset)
	r.spent = spent
	r.total = total
	r.unlimited = total <= 0
	r.charges++

	// Sliding window: fold the charge into its second's sample (a wall
	// clock stepped backwards folds into the newest one, keeping the
	// samples ordered), then drop samples at or past window age.
	sec := now.Unix()
	if n := len(r.window); n > 0 && r.window[n-1].sec >= sec {
		r.window[n-1].eps += eps
	} else {
		r.window = append(r.window, burnSample{sec: sec, eps: eps})
	}
	r.windowSum += eps
	cutoff := p.cutoffSec(now)
	trim := 0
	for trim < len(r.window) && r.window[trim].sec <= cutoff {
		r.windowSum -= r.window[trim].eps
		trim++
	}
	r.window = r.window[trim:]

	// The burn-rate observation is the window-average rate, EWMA-smoothed
	// across charges. Averaging over the window (rather than eps over the
	// gap since the previous charge) keeps a burst of back-to-back charges
	// from spiking the rate by orders of magnitude: four charges 2ms apart
	// read as ε-per-window, not ε-per-2ms. The first charge seeds the EWMA
	// directly.
	inst := r.windowSum / p.window.Seconds()
	if r.charges == 1 {
		r.ratePerSec = inst
	} else {
		r.ratePerSec = ewmaBurnAlpha*inst + (1-ewmaBurnAlpha)*r.ratePerSec
	}

	p.publishLocked(r)

	// Threshold crossings fire once each, outside the lock.
	var events []BudgetEvent
	if !r.unlimited && r.total > 0 {
		frac := (r.total - r.spent) / r.total
		for i, th := range burnThresholds {
			if !r.crossed[i] && frac < th {
				r.crossed[i] = true
				events = append(events, BudgetEvent{
					Tenant:           tenant,
					Dataset:          dataset,
					Fraction:         th,
					EpsilonRemaining: r.total - r.spent,
					EpsilonTotal:     r.total,
				})
			}
		}
	}
	fn := p.onEvent
	p.mu.Unlock()
	if fn != nil {
		for _, ev := range events {
			fn(ev)
		}
	}
}

// cutoffSec is the newest Unix second that has aged out of the window
// ending at now: samples at or before it no longer count.
func (p *BudgetPlane) cutoffSec(now time.Time) int64 {
	return now.Unix() - int64(p.window.Seconds())
}

func (p *BudgetPlane) publishLocked(r *burnRow) {
	if r.unlimited {
		r.remainingGauge.Set(0)
	} else {
		r.remainingGauge.Set(r.total - r.spent)
	}
	r.burnGauge.Set(r.ratePerSec * 60)
}

// Rows returns the exported burn-down rows, sorted by dataset then tenant
// (the global row sorts before its tenants). Nil-safe.
func (p *BudgetPlane) Rows() []BudgetRow {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cutoff := p.cutoffSec(p.now())
	out := make([]BudgetRow, 0, len(p.rows))
	for k, r := range p.rows {
		row := BudgetRow{
			Tenant:        k.tenant,
			Dataset:       k.dataset,
			Unlimited:     r.unlimited,
			EpsilonSpent:  r.spent,
			Charges:       r.charges,
			BurnPerMinute: r.ratePerSec * 60,
			WindowSeconds: int64(p.window.Seconds()),
		}
		if !r.unlimited {
			row.EpsilonTotal = r.total
			row.EpsilonRemaining = r.total - r.spent
			if r.ratePerSec > 0 && row.EpsilonRemaining > 0 {
				row.SecondsToExhaustion = int64(row.EpsilonRemaining / r.ratePerSec)
				if row.SecondsToExhaustion == 0 {
					row.SecondsToExhaustion = 1
				}
			}
		}
		for _, s := range r.window {
			if s.sec > cutoff {
				row.WindowEpsilon += s.eps
			}
		}
		for i, th := range burnThresholds {
			if r.crossed[i] {
				row.ThresholdsCrossed = append(row.ThresholdsCrossed, th)
			}
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}
