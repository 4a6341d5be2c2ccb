// Package pfc implements the IEEE 802.1Qbb priority flow control state
// machines shared by switch ports and NICs: reacting to received pause
// frames (holding an egress queue for the advertised quanta), generating
// sustained pause with periodic refresh, accounting pause intervals for
// monitoring, and the "condition persisted too long" detector both the
// NIC and switch watchdogs of the paper are built on.
package pfc

import (
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// metricNames names the PFC gauges: member pri is priority pri's pause
// time, member engagedMember the generator's engaged mask.
var metricNames = []telemetry.Metric{
	{Suffix: "/pause_time_ps", Labels: []telemetry.Label{{K: "pri", V: "0"}}},
	{Suffix: "/pause_time_ps", Labels: []telemetry.Label{{K: "pri", V: "1"}}},
	{Suffix: "/pause_time_ps", Labels: []telemetry.Label{{K: "pri", V: "2"}}},
	{Suffix: "/pause_time_ps", Labels: []telemetry.Label{{K: "pri", V: "3"}}},
	{Suffix: "/pause_time_ps", Labels: []telemetry.Label{{K: "pri", V: "4"}}},
	{Suffix: "/pause_time_ps", Labels: []telemetry.Label{{K: "pri", V: "5"}}},
	{Suffix: "/pause_time_ps", Labels: []telemetry.Label{{K: "pri", V: "6"}}},
	{Suffix: "/pause_time_ps", Labels: []telemetry.Label{{K: "pri", V: "7"}}},
	{Suffix: "/pause_engaged"},
}

const engagedMember = 8

// RegisterMetrics publishes one port's PFC state into the registry, as
// one gauge block: accumulated pause wall time per lossless priority
// (the paper argues pause duration is a better congestion signal than
// frame counts) and the currently engaged pause mask of the generator.
// The pause state is read through a getter because watchdogs replace the
// PauseState object when they trip; a captured pointer would go stale.
func RegisterMetrics(r *telemetry.Registry, device string, state func() *PauseState,
	gen *Refresher, losslessMask uint8, labels ...telemetry.Label) {
	if r == nil {
		return
	}
	members := uint64(losslessMask)
	if gen != nil {
		members |= 1 << engagedMember
	}
	r.Gauges(device, metricNames, members, func(i int) float64 {
		if i == engagedMember {
			return float64(gen.Engaged())
		}
		if s := state(); s != nil {
			return float64(s.TotalPaused[i])
		}
		return 0
	}, labels...)
}

// PauseState tracks, per priority, until when a received PFC frame forbids
// this egress from transmitting.
type PauseState struct {
	rate  simtime.Rate
	until [8]simtime.Time

	// RxPause counts pause frames received (XOFF and XON alike).
	RxPause uint64
	// pausedSince supports accumulated pause-interval accounting.
	pausedSince [8]simtime.Time
	isPaused    [8]bool
	// TotalPaused accumulates the paused wall time per priority; the
	// paper monitors pause intervals as a better congestion signal than
	// frame counts.
	TotalPaused [8]simtime.Duration
}

// NewPauseState returns the pause state for an egress attached to a link
// of the given rate (the rate defines the quantum: 512 bit times).
func NewPauseState(rate simtime.Rate) *PauseState {
	return &PauseState{rate: rate}
}

// Handle applies a received PFC frame at time now.
func (s *PauseState) Handle(now simtime.Time, pf *packet.PFCPause) {
	s.RxPause++
	q := simtime.Quantum(s.rate)
	for pri := 0; pri < 8; pri++ {
		if !pf.Enabled(pri) {
			continue
		}
		until := now.Add(simtime.Duration(pf.Quanta[pri]) * q)
		s.until[pri] = until
		s.account(now, pri, until)
	}
}

func (s *PauseState) account(now simtime.Time, pri int, until simtime.Time) {
	paused := until.After(now)
	switch {
	case paused && !s.isPaused[pri]:
		s.isPaused[pri] = true
		s.pausedSince[pri] = now
	case !paused && s.isPaused[pri]:
		s.isPaused[pri] = false
		s.TotalPaused[pri] += now.Sub(s.pausedSince[pri])
	}
}

// Paused reports whether priority pri may not transmit at time now.
func (s *PauseState) Paused(now simtime.Time, pri int) bool {
	if s.until[pri].After(now) {
		return true
	}
	if s.isPaused[pri] {
		// Quanta expired without an explicit resume: close the interval.
		s.isPaused[pri] = false
		s.TotalPaused[pri] += s.until[pri].Sub(s.pausedSince[pri])
	}
	return false
}

// ResumeAt returns when priority pri becomes transmittable again (now or
// earlier means transmittable already).
func (s *PauseState) ResumeAt(pri int) simtime.Time { return s.until[pri] }

// AnyPaused reports whether any priority in the mask is paused at now.
func (s *PauseState) AnyPaused(now simtime.Time, mask uint8) bool {
	for pri := 0; pri < 8; pri++ {
		if mask&(1<<uint(pri)) != 0 && s.Paused(now, pri) {
			return true
		}
	}
	return false
}

// MaxQuanta is the largest pause duration a single frame can carry.
const MaxQuanta = 0xffff

// Refresher emits sustained pause for a set of priorities by sending
// XOFF frames with MaxQuanta and refreshing them before they expire, then
// an explicit XON (zero quanta) on release — the standard way switches
// keep an upstream paused across the paper's long congestion episodes.
type Refresher struct {
	k       *sim.Kernel
	src     packet.MAC
	rate    simtime.Rate
	send    func(*packet.Packet)
	refresh *sim.Timer // allocated on the first XOFF
	engaged uint8      // bitmask of paused priorities

	// Pool, when set, supplies recycled frames for pause emission so a
	// sustained pause episode allocates nothing per refresh.
	Pool *packet.Pool

	// TxPause counts pause frames emitted (XOFF and XON).
	TxPause uint64
	// Disabled suppresses all emission (set by watchdogs).
	Disabled bool
}

// NewRefresher returns a refresher that sends its frames to send and
// schedules its refreshes on k.
func NewRefresher(k *sim.Kernel, src packet.MAC, rate simtime.Rate, send func(*packet.Packet)) *Refresher {
	return &Refresher{k: k, src: src, rate: rate, send: send}
}

// newPause builds a pause frame, recycling from the pool when wired.
func (r *Refresher) newPause(classEnable uint8, quanta uint16) *packet.Packet {
	if r.Pool != nil {
		return r.Pool.NewPause(r.src, classEnable, quanta)
	}
	return packet.NewPause(r.src, classEnable, quanta)
}

// Engaged returns the currently paused priority mask.
func (r *Refresher) Engaged() uint8 { return r.engaged }

// refreshInterval leaves comfortable margin before the advertised quanta
// run out (half the advertised time).
func (r *Refresher) refreshInterval() simtime.Duration {
	return simtime.Duration(MaxQuanta) * simtime.Quantum(r.rate) / 2
}

// Pause asserts XOFF for priority pri and keeps it asserted until Resume.
func (r *Refresher) Pause(pri int) {
	bit := uint8(1) << uint(pri)
	if r.engaged&bit != 0 && (r.refresh != nil && r.refresh.Armed() || r.Disabled) {
		// Already engaged with a refresh outstanding (steady state), or
		// emission is suppressed anyway: nothing to do. An engaged bit
		// with no refresh scheduled while enabled means the pause was
		// latched during a Disabled episode — fall through and emit, or
		// the upstream never sees XOFF and no refresher ever runs.
		return
	}
	r.engaged |= bit
	r.emit()
}

// Reenable clears Disabled and restarts sustained-pause emission for any
// priorities that were latched engaged while emission was suppressed.
// Watchdogs must use this (not a bare Disabled=false) when lossless mode
// comes back, otherwise a PG left in XOFF state stays engaged with no
// refresher running.
func (r *Refresher) Reenable() {
	if !r.Disabled {
		return
	}
	r.Disabled = false
	r.emit()
}

// Resume releases priority pri with an explicit zero-quanta frame.
func (r *Refresher) Resume(pri int) {
	bit := uint8(1) << uint(pri)
	if r.engaged&bit == 0 {
		return
	}
	r.engaged &^= bit
	if r.Disabled {
		return
	}
	xon := r.newPause(bit, 0)
	r.send(xon)
	r.TxPause++
}

// emit sends the XOFF frame for all engaged priorities and schedules the
// next refresh.
func (r *Refresher) emit() {
	if r.engaged == 0 || r.Disabled {
		return
	}
	pf := r.newPause(r.engaged, MaxQuanta)
	r.send(pf)
	r.TxPause++
	if r.refresh == nil {
		r.refresh = r.k.NewTimer(r.emit)
	}
	if !r.refresh.Armed() {
		r.refresh.Reset(r.refreshInterval())
	}
}

// Watchdog detects a condition that has persisted continuously for a
// configurable window — the primitive under both the NIC watchdog ("RX
// pipeline stopped for 100 ms while sending pauses") and the switch
// watchdog ("egress not draining while pauses keep arriving for 200 ms").
type Watchdog struct {
	window   simtime.Duration
	since    simtime.Time // start of the current true-episode
	lastTrue simtime.Time // most recent true observation
	active   bool
	fired    bool
}

// NewWatchdog returns a watchdog that trips after the condition holds for
// window.
func NewWatchdog(window simtime.Duration) *Watchdog {
	return &Watchdog{window: window}
}

// Observe feeds the current condition value at time now and reports
// whether the watchdog trips on this observation (exactly once per
// continuous episode).
func (w *Watchdog) Observe(now simtime.Time, condition bool) bool {
	if !condition {
		w.active = false
		w.fired = false
		return false
	}
	w.lastTrue = now
	if !w.active {
		w.active = true
		w.since = now
		return false
	}
	if !w.fired && now.Sub(w.since) >= w.window {
		w.fired = true
		return true
	}
	return false
}

// Tripped reports whether the watchdog has fired during the current
// episode.
func (w *Watchdog) Tripped() bool { return w.fired }

// ClearedFor reports how long the condition has been absent — used by
// the switch watchdog to re-enable lossless mode after pause frames
// disappear for 200 ms. While the condition holds it returns 0.
func (w *Watchdog) ClearedFor(now simtime.Time) simtime.Duration {
	if w.active {
		return 0
	}
	return now.Sub(w.lastTrue)
}
