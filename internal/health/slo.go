package health

import (
	"fmt"

	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
)

// Objective is one declarative service level objective. Bad returns the
// badness fraction in [0,1] for the scrape interval ending at now —
// 1 means the interval fully violated the objective (a pause storm
// interval, a window of over-target probes), 0 means fully healthy.
// The engine records badness into a tiered series and alerts on
// multi-window burn rate: the objective breaches when the average
// badness over BOTH the short and the long window exceeds Burn×Budget
// (short window for fast detection, long window so a single blip can't
// page), and clears only after ClearAfter consecutive calm scrapes.
// With both windows one scrape long, an objective is a per-interval
// threshold detector with ClearAfter hysteresis.
type Objective struct {
	Name string
	Bad  func(now simtime.Time) float64

	// Budget is the error budget: the bad fraction the objective
	// tolerates in steady state (default 0.25).
	Budget float64
	// ShortWindow/LongWindow are the burn-rate windows (defaults: one
	// and four scrape intervals).
	ShortWindow, LongWindow simtime.Duration
	// Burn is the burn-rate threshold (default 2: consuming budget at
	// twice the sustainable rate on both windows opens a breach).
	Burn float64
	// ClearAfter is how many consecutive calm scrapes close a breach
	// (default 2).
	ClearAfter int
}

// SLOAlert is announced on the kernel bus whenever an objective
// breaches or clears. Subscribers (the chaos campaign's time-to-detect
// scoring, a paging pipeline) receive alerts in objective registration
// order within a scrape — deterministic across runs.
type SLOAlert struct {
	At        simtime.Time
	Objective string
	Cleared   bool
	BurnShort float64
	BurnLong  float64
}

// String renders the alert.
func (a SLOAlert) String() string {
	verb := "BREACH"
	if a.Cleared {
		verb = "clear"
	}
	return fmt.Sprintf("slo %s %s at %v (burn short=%.2f long=%.2f)",
		verb, a.Objective, a.At, a.BurnShort, a.BurnLong)
}

type objState struct {
	Objective
	series *TieredSeries

	breached     bool
	calm         int
	everBreached bool
	firstBreach  simtime.Time
	lastShort    float64
	lastLong     float64
	breaches     int
}

// Engine evaluates objectives on every scrape. Construct with
// NewEngine, Add objectives, run the simulation.
type Engine struct {
	k  *sim.Kernel
	sc *Scraper

	objs []*objState

	// Alerts is the full breach/clear history in firing order.
	Alerts []SLOAlert
}

// NewEngine attaches an SLO engine to a scraper's tick.
func NewEngine(k *sim.Kernel, sc *Scraper) *Engine {
	e := &Engine{k: k, sc: sc}
	sc.OnScrape(e.step)
	return e
}

// Add registers an objective (evaluation order = registration order).
func (e *Engine) Add(o Objective) {
	if o.Bad == nil {
		panic("health: objective without a Bad function")
	}
	if o.Budget <= 0 {
		o.Budget = 0.25
	}
	if o.ShortWindow <= 0 {
		o.ShortWindow = e.sc.Interval()
	}
	if o.LongWindow <= 0 {
		o.LongWindow = 4 * e.sc.Interval()
	}
	if o.Burn <= 0 {
		o.Burn = 2
	}
	if o.ClearAfter <= 0 {
		o.ClearAfter = 2
	}
	cfg := e.sc.cfg
	e.objs = append(e.objs, &objState{
		Objective: o,
		series:    NewTieredSeries("slo/"+o.Name, cfg.RawCap, cfg.MidCap, cfg.CoarseCap),
	})
}

// step evaluates every objective against the scrape ending at now.
func (e *Engine) step(now simtime.Time) {
	for _, o := range e.objs {
		bad := o.Bad(now)
		if bad < 0 {
			bad = 0
		}
		if bad > 1 {
			bad = 1
		}
		o.series.Record(now, bad)
		o.lastShort = e.burn(o, now, o.ShortWindow)
		o.lastLong = e.burn(o, now, o.LongWindow)
		hot := o.lastShort >= o.Burn && o.lastLong >= o.Burn
		if !o.breached {
			if hot {
				o.breached, o.calm = true, 0
				o.breaches++
				if !o.everBreached {
					o.everBreached, o.firstBreach = true, now
				}
				e.fire(SLOAlert{At: now, Objective: o.Name,
					BurnShort: o.lastShort, BurnLong: o.lastLong})
			}
			continue
		}
		if hot {
			o.calm = 0
			continue
		}
		if o.calm++; o.calm >= o.ClearAfter {
			o.breached, o.calm = false, 0
			e.fire(SLOAlert{At: now, Objective: o.Name, Cleared: true,
				BurnShort: o.lastShort, BurnLong: o.lastLong})
		}
	}
}

func (e *Engine) fire(a SLOAlert) {
	e.Alerts = append(e.Alerts, a)
	e.k.Announce(a)
}

// burn computes the burn rate over the window (now-w, now]: the
// badness sum divided by the scrape count of a FULL window, then by the
// budget. The lower boundary is exclusive — with scrapes every interval,
// a window of w covers exactly w/interval samples, so the divisor below
// matches the inclusive-window sample count instead of diluting it by
// one extra scrape. Normalizing by the expected count (not the retained
// one) means an under-filled window — the first scrapes of a run —
// reads low: a single cold-start spike cannot page a long-window alert,
// only sustained badness can.
func (e *Engine) burn(o *objState, now simtime.Time, w simtime.Duration) float64 {
	from := simtime.Time(0)
	if simtime.Duration(now) > w {
		// +1: exclude the bucket recorded exactly at now-w, making the
		// window half-open.
		from = now.Add(-w) + 1
	}
	b := o.series.Window(from, now)
	if b.N == 0 {
		return 0
	}
	div := float64(b.N)
	if expected := float64(w / e.sc.Interval()); expected > div {
		div = expected
	}
	return b.Sum / div / o.Budget
}

// Breached reports whether any objective is currently in breach.
func (e *Engine) Breached() bool {
	for _, o := range e.objs {
		if o.breached {
			return true
		}
	}
	return false
}

// EverBreached reports whether any objective breached at any point.
func (e *Engine) EverBreached() bool {
	for _, o := range e.objs {
		if o.everBreached {
			return true
		}
	}
	return false
}

// FirstBreachAfter returns the earliest breach at or after t across all
// objectives — the health plane's time-to-detect primitive.
func (e *Engine) FirstBreachAfter(t simtime.Time) (simtime.Time, bool) {
	var first simtime.Time
	found := false
	for _, a := range e.Alerts {
		if a.Cleared || a.At < t {
			continue
		}
		if !found || a.At < first {
			first, found = a.At, true
		}
	}
	return first, found
}

// ObjectiveStatus is one objective's end-of-run state for reporting.
type ObjectiveStatus struct {
	Name          string  `json:"name"`
	Breached      bool    `json:"breached"` // open at end of run
	EverBreached  bool    `json:"everBreached"`
	FirstBreachNs int64   `json:"firstBreachNs"` // -1 when never breached
	Breaches      int     `json:"breaches"`
	BurnShort     float64 `json:"burnShort"` // last evaluated
	BurnLong      float64 `json:"burnLong"`
}

// Status returns per-objective state in registration order.
func (e *Engine) Status() []ObjectiveStatus {
	out := make([]ObjectiveStatus, 0, len(e.objs))
	for _, o := range e.objs {
		fb := int64(-1)
		if o.everBreached {
			fb = ns(o.firstBreach)
		}
		out = append(out, ObjectiveStatus{
			Name: o.Name, Breached: o.breached, EverBreached: o.everBreached,
			FirstBreachNs: fb, Breaches: o.breaches,
			BurnShort: round3(o.lastShort), BurnLong: round3(o.lastLong),
		})
	}
	return out
}

// OverDelta builds a badness function for a per-interval ceiling: 1
// when any scraped series whose key ends in suffix recorded a last
// delta ≥ max this scrape, else 0. This is the pause-rate-ceiling and
// lossless-drop objective shape (the paper's alert thresholds on pause
// counters, recast as an error budget).
func OverDelta(sc *Scraper, suffix string, max float64) func(simtime.Time) float64 {
	return func(simtime.Time) float64 {
		for _, k := range sc.Keys {
			if len(k) < len(suffix) || k[len(k)-len(suffix):] != suffix {
				continue
			}
			if b, ok := sc.Series[k].Last(); ok && b.Sum >= max {
				return 1
			}
		}
		return 0
	}
}

// LatencyOver builds a badness function from a cumulative latency
// sketch: the fraction of samples recorded since the previous scrape
// that exceed target (0 when the interval saw no samples). This is the
// per-priority p99 latency objective shape: with Budget 0.01, burning
// budget means more than 1% of RTTs over target.
func LatencyOver(sk *stats.Sketch, target float64) func(simtime.Time) float64 {
	var lastTotal, lastAbove uint64
	return func(simtime.Time) float64 {
		total, above := sk.Count(), sk.CountAbove(target)
		dt, da := total-lastTotal, above-lastAbove
		lastTotal, lastAbove = total, above
		if dt == 0 {
			return 0
		}
		return float64(da) / float64(dt)
	}
}

// Below builds a badness function for a floor on a sampled rate: 1 when
// sample() < floor, else 0 — the per-tenant goodput-floor objective
// shape. The caller supplies the rate reader (typically a closure over
// a delivered-bytes counter delta).
func Below(sample func() float64, floor float64) func(simtime.Time) float64 {
	return func(simtime.Time) float64 {
		if sample() < floor {
			return 1
		}
		return 0
	}
}
