package transport

import (
	"rocesim/internal/irn"
	"rocesim/internal/packet"
	"rocesim/internal/simtime"
)

// Strategy owns the four decisions that distinguish RoCE transports:
// loss detection (what the responder does with an out-of-sequence
// arrival), retransmission selection (which PSNs the requester re-sends
// on NAK or timeout), flow bounding (how many packets may be
// outstanding), and completion ordering (when the cumulative ack point
// may move). Everything else — segmentation, header construction, ACK
// generation, pooling, pacing arithmetic — is shared QP machinery.
//
// The interface is sealed: implementations live in this package (the
// IRN mechanics themselves are in internal/irn) because the hooks
// receive the *QP and mutate its sequence state. Other layers consume
// the exported descriptors only.
//
// Determinism contract for strategy-owned state: a strategy instance
// binds to exactly one QP and may keep any state it likes, but it must
// never iterate a Go map in a way that reaches packets, counters, or
// timers (map order would leak into the simulation), must draw
// randomness only from the QP's Endpoint stream, and must not read
// wall-clock time. All three implementations keep per-PSN state keyed
// by explicit PSN lookups only.
type Strategy interface {
	// Name labels the strategy in logs, traces, and QP summaries.
	Name() string
	// SelectiveRepeat reports whether the cumulative ack point can jump
	// over SACKed runs (relaxing the invariant layer's PSN-advance
	// rule).
	SelectiveRepeat() bool
	// MaxOutstanding is the flow bound in packets (the window for
	// cumulative schemes, min(window, BDP) for IRN). Valid after bind.
	MaxOutstanding() uint32

	// bind attaches the strategy to its QP (exactly once) and builds
	// the strategy-owned pacer.
	bind(q *QP)
	// pacer returns the DCQCN pacing state the strategy owns.
	pacer() *Pacer
	// hasData reports whether a request packet is transmittable now
	// (new data within the flow bound, or a queued retransmission).
	hasData(q *QP) bool
	// popRequest emits the next requester packet.
	popRequest(q *QP, now simtime.Time) *packet.Packet
	// retxTimeout picks the retransmission-timer duration to arm now
	// (per-flow for IRN: RTOLow with a near-empty pipe, RTOHigh
	// otherwise; the QP-wide RetxTimeout for cumulative schemes).
	retxTimeout(q *QP) simtime.Duration
	// onTimeout selects what to retransmit when the retx timer fires.
	onTimeout(q *QP)
	// onNak reacts to a NAK (p.BTH.PSN is the responder's cumulative
	// point; p.SACK, when present, the out-of-order bitmap).
	onNak(q *QP, p *packet.Packet)
	// onGap is the responder's out-of-sequence arrival handler
	// (irn.Diff(p.BTH.PSN, q.ePSN) > 0).
	onGap(q *QP, p *packet.Packet)
	// onReadGap recovers a hole in the READ response stream.
	onReadGap(q *QP, missing uint32)
	// afterInOrder runs after an in-sequence request packet was
	// accepted (selective repeat drains its out-of-order buffer here).
	afterInOrder(q *QP)
	// onCumAdvance observes the cumulative ack point moving from from
	// to to (selective repeat prunes per-PSN state).
	onCumAdvance(q *QP, from, to uint32)
	// resetRequester drops requester-side retransmit state after a
	// READ re-issue repositions the PSN range.
	resetRequester(q *QP)
}

// NewGoBackN returns the default strategy: resume transmission from the
// first dropped PSN (the paper's Section 4.1 firmware fix).
func NewGoBackN() Strategy { return &cumulative{} }

// NewGoBack0 returns the vendor's original restart-the-whole-message
// strategy — kept for the livelock reproduction.
func NewGoBack0() Strategy { return &cumulative{zero: true} }

// NewIRN returns the selective-repeat strategy (SACK bitmap loss
// detection, per-PSN retransmission, BDP-bounded flight).
func NewIRN(cfg irn.Config) Strategy {
	return &irnStrategy{
		cfg:    cfg,
		rtx:    irn.NewQueue(),
		sacked: irn.NewSackSet(),
		tr:     irn.NewTracker(),
	}
}

// strategyBase carries what every strategy owns: the QP it is bound to
// and the pacer charging emissions against the DCQCN rate.
type strategyBase struct {
	q  *QP
	pc *Pacer
}

func (b *strategyBase) bindTo(q *QP) {
	if b.q != nil {
		panic("transport: strategy instance already bound to a QP")
	}
	b.q = q
	b.pc = newPacer(&q.cfg, q.ep.Now())
}

func (b *strategyBase) pacer() *Pacer { return b.pc }

// cumulative is the shared machinery of both go-back schemes: the
// responder accepts strictly in sequence and NAKs gaps; the requester
// rewinds on loss — to the first missing PSN (go-back-N) or to the
// start of the message on a fresh range (go-back-0, zero=true).
type cumulative struct {
	strategyBase
	zero bool

	// Responder loss-detection state: one NAK per gap episode,
	// repeated (rate-limited) while out-of-sequence packets keep
	// arriving.
	nakArmed bool
	oosSince int
}

// Name implements Strategy.
func (c *cumulative) Name() string {
	if c.zero {
		return "go-back-0"
	}
	return "go-back-N"
}

// SelectiveRepeat implements Strategy.
func (c *cumulative) SelectiveRepeat() bool { return false }

// MaxOutstanding implements Strategy.
func (c *cumulative) MaxOutstanding() uint32 { return uint32(c.q.cfg.Window) }

func (c *cumulative) bind(q *QP) { c.bindTo(q) }

func (c *cumulative) hasData(q *QP) bool {
	if len(q.ops) == 0 {
		return false
	}
	if irn.Diff(q.sndNxt, q.nextPSN) >= 0 {
		return false // everything assigned has been transmitted
	}
	return irn.Diff(q.sndNxt, q.sndUna) < int32(q.cfg.Window)
}

func (c *cumulative) popRequest(q *QP, now simtime.Time) *packet.Packet {
	o := q.opForPSN(q.sndNxt)
	if o == nil {
		return nil
	}
	// READs are serialized behind all earlier ops, mirroring the small
	// max_rd_atomic budget of real NICs; this keeps response-stream
	// recovery unambiguous.
	if o.kind == OpRead && o != q.ops[0] {
		return nil
	}
	return q.emitRequest(o, q.sndNxt, now, true)
}

// recover restarts transmission per the scheme. missing is the first
// PSN known lost: the responder's expected PSN when fromNak, otherwise
// the oldest unacknowledged PSN. PSNs never rewind for go-back-0: the
// message restarts on a fresh range, which is why a deterministic drop
// inside every window of 256 packets starves it forever (Section 4.1).
func (c *cumulative) recover(q *QP, missing uint32, fromNak bool) {
	if len(q.ops) == 0 {
		return
	}
	o := q.ops[0]

	if o.kind == OpRead {
		q.recoverRead(missing, fromNak, c.zero)
		return
	}

	if c.zero {
		// Restart the whole message from byte 0 on fresh PSNs aligned
		// with the responder's expected PSN. The retransmit count is the
		// forward distance actually re-walked; during go-back-0 recovery
		// sndNxt may trail sndUna (duplicate re-walk), making the signed
		// diff negative — which, unclamped, underflows the uint64
		// counters by ~2^64.
		start := missing
		if n := irn.Diff(q.sndNxt, start); n > 0 {
			q.S.PacketsRetx += uint64(n)
			q.cfg.Metrics.PacketsRetx.Add(uint64(n))
		}
		o.firstPSN = start
		q.sndNxt = start
		q.sndUna = start
		q.reflow(1, irn.Add(start, o.npkts))
		return
	}
	// Go-back-N: resume the same mapping from the missing PSN.
	// missing can never be behind sndUna here — timeouts pass sndUna
	// itself and the NAK path discards anything stale — so the
	// cumulative ack point never rewinds.
	if irn.Diff(missing, q.sndNxt) < 0 {
		q.S.PacketsRetx += uint64(irn.Diff(q.sndNxt, missing))
		q.cfg.Metrics.PacketsRetx.Add(uint64(irn.Diff(q.sndNxt, missing)))
		q.sndNxt = missing
	}
}

func (c *cumulative) retxTimeout(q *QP) simtime.Duration { return q.cfg.RetxTimeout }

func (c *cumulative) onTimeout(q *QP) { c.recover(q, q.sndUna, false) }

func (c *cumulative) onNak(q *QP, p *packet.Packet) {
	// Staleness guard, mirroring the ACK path: for SEND/WRITE a
	// genuine NAK names the responder's expected PSN, which can
	// never be below our cumulative ack point (sndUna only advances
	// when the responder acknowledged everything before it). A NAK
	// behind sndUna is a reordered or duplicate frame from an
	// episode already recovered past; acting on it would rewind
	// sndUna below acknowledged data and re-send retired packets.
	// READs are exempt: their recovery repositions sndUna on a
	// guessed fresh range, and a NAK behind it is the responder
	// steering the re-issued request to where it actually is.
	if irn.Diff(p.BTH.PSN, q.sndUna) < 0 &&
		(len(q.ops) == 0 || q.ops[0].kind != OpRead) {
		return
	}
	q.traceRetx("nak")
	c.recover(q, p.BTH.PSN, true)
	q.armRetx()
	q.ep.Kick()
}

func (c *cumulative) onGap(q *QP, p *packet.Packet) {
	// Gap: a packet was dropped. NAK once per episode, but repeat
	// (rate-limited) if out-of-sequence packets keep arriving —
	// the first NAK may itself have been lost.
	c.oosSince++
	if !c.nakArmed || c.oosSince >= 256 {
		c.nakArmed = true
		c.oosSince = 0
		nak := q.newCtl(packet.OpAcknowledge)
		*nak.AttachAETH() = packet.AETH{
			Syndrome: packet.AETHNak | packet.NakPSNSequenceError,
			MSN:      q.rMSN,
		}
		nak.BTH.PSN = q.ePSN
		q.ctl = append(q.ctl, nak)
		q.S.NaksSent++
		q.cfg.Metrics.NaksSent.Inc()
	}
}

func (c *cumulative) onReadGap(q *QP, missing uint32) {
	q.recoverRead(missing, false, c.zero)
}

func (c *cumulative) afterInOrder(q *QP) { c.nakArmed = false }

func (c *cumulative) onCumAdvance(q *QP, from, to uint32) {}

func (c *cumulative) resetRequester(q *QP) {}
