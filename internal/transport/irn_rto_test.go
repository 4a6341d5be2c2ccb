package transport

import (
	"testing"

	"rocesim/internal/irn"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
)

// newIRNPairRTO builds a connected IRN pair with the given per-flow
// timer config on the requester side.
func newIRNPairRTO(k *sim.Kernel, ic irn.Config) (*QP, *QP) {
	ea, eb := &stubEP{k: k}, &stubEP{k: k}
	cfgA := Config{QPN: 1, PeerQPN: 2, Priority: 3, MTU: 1024, SrcPort: 700, Recovery: IRN, IRN: &ic}
	cfgB := Config{QPN: 2, PeerQPN: 1, Priority: 3, MTU: 1024, SrcPort: 701, Recovery: IRN, IRN: &ic}
	return New(ea, cfgA), New(eb, cfgB)
}

// TestIRNTailLossUsesRTOLow is the pre-fix-failing regression for
// per-flow retransmission timers: a tail loss (the last packet of a
// message, so no later arrival ever triggers a NAK-with-SACK) must
// recover on the aggressive RTOLow, not the coarse QP-wide RetxTimeout.
// Before strategies owned retxTimeout, recovery here waited the full
// 500µs default and this test failed.
func TestIRNTailLossUsesRTOLow(t *testing.T) {
	k := sim.NewKernel(42)
	a, b := newIRNPairRTO(k, irn.Config{RTOLow: 20 * simtime.Microsecond})

	var completed simtime.Time
	done := false
	a.Post(OpSend, 3*1024, func(_, at simtime.Time) { done, completed = true, at })

	dropped := false
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if !dropped && p.BTH.Opcode == packet.OpSendLast {
			dropped = true // tail loss: nothing behind it to SACK
			return true
		}
		return false
	})

	if !done {
		t.Fatal("message never completed after tail loss")
	}
	// The loss is only recoverable by timer. RTOLow fires at 20µs after
	// the last progress; the coarse default would sit until 500µs.
	if limit := simtime.Time(100 * simtime.Microsecond); completed > limit {
		t.Fatalf("tail loss recovered at %v — waited on the coarse global timer, want < %v (RTOLow path)", completed, limit)
	}
	if a.S.Timeouts == 0 {
		t.Fatal("recovery did not go through the timeout path")
	}
}

// TestIRNRetxTimeoutSelection pins the two-level selection rule: RTOLow
// at or below the flight threshold, RTOHigh above it, with fallbacks to
// the QP-wide RetxTimeout when unset.
func TestIRNRetxTimeoutSelection(t *testing.T) {
	k := sim.NewKernel(1)
	ic := irn.Config{
		RTOLow:          10 * simtime.Microsecond,
		RTOHigh:         320 * simtime.Microsecond,
		LowFlightThresh: 3,
	}
	a, _ := newIRNPairRTO(k, ic)

	set := func(flight uint32) {
		a.sndUna = 100
		a.sndNxt = irn.Add(100, flight)
	}
	set(0)
	if got := a.strat.retxTimeout(a); got != ic.RTOLow {
		t.Fatalf("empty pipe: retxTimeout = %v, want RTOLow %v", got, ic.RTOLow)
	}
	set(3)
	if got := a.strat.retxTimeout(a); got != ic.RTOLow {
		t.Fatalf("flight at threshold: retxTimeout = %v, want RTOLow %v", got, ic.RTOLow)
	}
	set(4)
	if got := a.strat.retxTimeout(a); got != ic.RTOHigh {
		t.Fatalf("flight above threshold: retxTimeout = %v, want RTOHigh %v", got, ic.RTOHigh)
	}

	// RTOHigh unset: fall back to the QP-wide timer above threshold.
	b, _ := newIRNPairRTO(k, irn.Config{RTOLow: 10 * simtime.Microsecond})
	b.sndUna, b.sndNxt = 100, irn.Add(100, 10)
	if got := b.strat.retxTimeout(b); got != b.cfg.RetxTimeout {
		t.Fatalf("RTOHigh unset: retxTimeout = %v, want QP default %v", got, b.cfg.RetxTimeout)
	}
	// Neither set: behavior identical to the pre-change global timer.
	c, _ := newIRNPairRTO(k, irn.Config{})
	if got := c.strat.retxTimeout(c); got != c.cfg.RetxTimeout {
		t.Fatalf("no RTO config: retxTimeout = %v, want QP default %v", got, c.cfg.RetxTimeout)
	}
	// Cumulative strategies always use the QP-wide timer.
	d, _, _, _ := newPairRec(k, GoBackN)
	d.sndUna, d.sndNxt = 0, 1
	if got := d.strat.retxTimeout(d); got != d.cfg.RetxTimeout {
		t.Fatalf("go-back-N: retxTimeout = %v, want QP default %v", got, d.cfg.RetxTimeout)
	}
}
