// Package dcqcn implements the DCQCN congestion control algorithm
// (Zhu et al., SIGCOMM 2015) the paper deploys alongside PFC: the switch
// congestion point marks ECN (implemented in internal/fabric), the
// notification point (NP, receiver NIC) turns CE marks into rate-limited
// CNPs, and the reaction point (RP, sender NIC) cuts its rate on CNP and
// recovers through fast-recovery, additive-increase and hyper-increase
// stages.
package dcqcn

import (
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// Metrics aggregates DCQCN rate events across all flows of one device
// (NIC). All fields are nil-tolerant, so unregistered state machines
// (tests, standalone use) cost one nil check per event.
type Metrics struct {
	// RateCuts counts RP rate reductions (one per processed CNP).
	RateCuts *telemetry.Counter
	// CNPsReceived counts CNPs processed by RPs.
	CNPsReceived *telemetry.Counter
	// CEArrivals counts CE-marked packets seen by NPs.
	CEArrivals *telemetry.Counter
	// CNPsGenerated counts CNPs the NPs decided to send.
	CNPsGenerated *telemetry.Counter
}

// metricNames names the Metrics counters, in field order.
var metricNames = []telemetry.Metric{
	{Suffix: "/dcqcn_rate_cuts"},
	{Suffix: "/dcqcn_cnps_rx"},
	{Suffix: "/dcqcn_ce_arrivals"},
	{Suffix: "/dcqcn_cnps_generated"},
}

// RegisterMetrics registers the per-device DCQCN rate-event counters, as
// one block.
func RegisterMetrics(r *telemetry.Registry, device string) *Metrics {
	c := r.Counters(device, metricNames)
	return &Metrics{
		RateCuts:      &c[0],
		CNPsReceived:  &c[1],
		CEArrivals:    &c[2],
		CNPsGenerated: &c[3],
	}
}

// Params are the RP/NP constants. Defaults follow the DCQCN paper scaled
// for 40GbE.
type Params struct {
	// LineRate is the full rate of the port (upper bound for the flow).
	LineRate simtime.Rate
	// MinRate is the floor the rate may be cut to.
	MinRate simtime.Rate
	// G is the alpha EWMA gain (1/256 in the paper).
	G float64
	// AlphaTimer is the alpha-decay period when no CNP arrives (55 us).
	AlphaTimer simtime.Duration
	// RateTimer is the increase-timer period T (55 us).
	RateTimer simtime.Duration
	// ByteCounter is the byte budget B between byte-counter increase
	// events (10 MB).
	ByteCounter int64
	// F is the number of fast-recovery stages before additive increase.
	F int
	// RateAI and RateHAI are the additive and hyper increase steps
	// (40 Mbps / 400 Mbps).
	RateAI  simtime.Rate
	RateHAI simtime.Rate
	// CNPInterval is the NP-side minimum gap between CNPs per flow
	// (50 us).
	CNPInterval simtime.Duration
	// Metrics, when non-nil, receives aggregated rate events (shared by
	// every flow of one device).
	Metrics *Metrics
}

// DefaultParams returns the paper's constants for a given line rate.
func DefaultParams(line simtime.Rate) Params {
	return Params{
		LineRate:    line,
		MinRate:     40 * simtime.Mbps,
		G:           1.0 / 256,
		AlphaTimer:  55 * simtime.Microsecond,
		RateTimer:   55 * simtime.Microsecond,
		ByteCounter: 10 << 20,
		F:           5,
		RateAI:      40 * simtime.Mbps,
		RateHAI:     400 * simtime.Mbps,
		CNPInterval: 50 * simtime.Microsecond,
	}
}

// RP is the reaction-point state machine for one flow (QP).
type RP struct {
	p  Params
	rc simtime.Rate // current rate
	rt simtime.Rate // target rate
	a  float64      // alpha: congestion estimate

	lastCNP       simtime.Time
	lastAlpha     simtime.Time // last alpha update (decay or CNP)
	lastTimer     simtime.Time // start of current rate-timer period
	lastSend      simtime.Time // most recent OnSend (gates timer catch-up)
	bytesSinceCut int64

	timerEvents int // T: timer expirations since last cut
	byteEvents  int // BC: byte-counter expirations since last cut

	// Counters for monitoring.
	CNPs     uint64
	RateCuts uint64

	// Audit, when non-nil, is invoked after every rate-state change
	// (cut or increase) so an invariant checker can assert the DCQCN
	// bounds at event granularity. Costs one nil check when unset.
	Audit func(*RP)
}

// NewRP returns a reaction point starting at line rate with alpha = 1,
// as the DCQCN paper specifies for flow start.
func NewRP(p Params, now simtime.Time) *RP {
	return &RP{
		p:         p,
		rc:        p.LineRate,
		rt:        p.LineRate,
		a:         1,
		lastAlpha: now,
		lastTimer: now,
		lastSend:  now,
	}
}

// Rate returns the current sending rate.
func (r *RP) Rate() simtime.Rate { return r.rc }

// Params returns the RP's configured parameters.
func (r *RP) Params() Params { return r.p }

// TargetRate returns the target rate (for tests and monitoring).
func (r *RP) TargetRate() simtime.Rate { return r.rt }

// Alpha returns the congestion estimate.
func (r *RP) Alpha() float64 { return r.a }

// OnCNP processes a congestion notification at time now.
func (r *RP) OnCNP(now simtime.Time) {
	r.decayAlphaTo(now)
	r.CNPs++
	r.RateCuts++
	if m := r.p.Metrics; m != nil {
		m.CNPsReceived.Inc()
		m.RateCuts.Inc()
	}
	r.rt = r.rc
	r.rc = r.rc.Scale(1 - r.a/2)
	if r.rc < r.p.MinRate {
		r.rc = r.p.MinRate
	}
	r.a = (1-r.p.G)*r.a + r.p.G
	r.lastCNP = now
	r.lastAlpha = now
	r.lastTimer = now
	r.bytesSinceCut = 0
	r.timerEvents = 0
	r.byteEvents = 0
	if r.Audit != nil {
		r.Audit(r)
	}
}

// decayAlphaTo applies any pending alpha-decay periods up to now.
func (r *RP) decayAlphaTo(now simtime.Time) {
	for now.Sub(r.lastAlpha) >= r.p.AlphaTimer {
		r.a *= 1 - r.p.G
		r.lastAlpha = r.lastAlpha.Add(r.p.AlphaTimer)
	}
}

// OnSend credits sent bytes toward the byte counter and fires any due
// increase events. Call it when the flow transmits.
func (r *RP) OnSend(now simtime.Time, bytes int) {
	r.bytesSinceCut += int64(bytes)
	for r.bytesSinceCut >= r.p.ByteCounter {
		r.bytesSinceCut -= r.p.ByteCounter
		r.byteEvents++
		r.increase(now)
	}
	r.Poll(now)
	r.lastSend = now
}

// Poll fires any due timer-based events (alpha decay and rate-timer
// increases). The NIC calls it before computing packet pacing.
//
// Timer catch-up is clamped for idle flows: a rate-timer period only
// counts as an increase event if the flow sent during it, or if it is
// the most recent complete period (the ordinary single expiry). Without
// the clamp, the first Poll after a long idle gap replays every elapsed
// period back-to-back, marching timerEvents past F and jumping an idle
// flow straight into hyper-increase without it sending a byte.
func (r *RP) Poll(now simtime.Time) {
	r.decayAlphaTo(now)
	for now.Sub(r.lastTimer) >= r.p.RateTimer {
		next := r.lastTimer.Add(r.p.RateTimer)
		sent := !r.lastSend.Before(r.lastTimer)
		r.lastTimer = next
		if !sent && now.Sub(next) >= r.p.RateTimer {
			continue // idle historical period: advance without an event
		}
		r.timerEvents++
		r.increase(now)
	}
}

// increase runs one rate-increase event. The stage depends on how many
// timer and byte-counter events have fired since the last cut: fast
// recovery until either reaches F, hyper increase once both exceed F,
// additive increase otherwise.
func (r *RP) increase(now simtime.Time) {
	switch {
	case r.timerEvents <= r.p.F && r.byteEvents <= r.p.F:
		// Fast recovery: halve the gap to the target.
	case r.timerEvents > r.p.F && r.byteEvents > r.p.F:
		r.rt += r.p.RateHAI
	default:
		r.rt += r.p.RateAI
	}
	if r.rt > r.p.LineRate {
		r.rt = r.p.LineRate
	}
	r.rc = (r.rt + r.rc) / 2
	if r.rc > r.p.LineRate {
		r.rc = r.p.LineRate
	}
	if r.Audit != nil {
		r.Audit(r)
	}
}

// NP is the notification-point state for one flow: it rate-limits CNP
// generation to one per CNPInterval while CE-marked packets arrive.
type NP struct {
	p       Params
	lastCNP simtime.Time
	armed   bool

	// CEs counts CE-marked arrivals; CNPsSent counts notifications.
	CEs      uint64
	CNPsSent uint64
}

// NewNP returns a notification point.
func NewNP(p Params) *NP { return &NP{p: p} }

// OnCE records a CE-marked packet arrival and reports whether a CNP
// should be sent now.
func (n *NP) OnCE(now simtime.Time) bool {
	n.CEs++
	if m := n.p.Metrics; m != nil {
		m.CEArrivals.Inc()
	}
	if !n.armed || now.Sub(n.lastCNP) >= n.p.CNPInterval {
		n.armed = true
		n.lastCNP = now
		n.CNPsSent++
		if m := n.p.Metrics; m != nil {
			m.CNPsGenerated.Inc()
		}
		return true
	}
	return false
}
