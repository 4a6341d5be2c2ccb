// Package transport implements the RoCEv2 reliable-connection transport
// the paper's NICs run: queue pairs with 24-bit PSN sequencing, SEND /
// WRITE / READ verbs segmented to the path MTU, ACK/NAK (AETH)
// generation, and DCQCN-paced emission. Loss detection, retransmission
// selection, flow bounding, and completion ordering are delegated to a
// pluggable Strategy with three implementations: go-back-N (the paper's
// Section 4.1 replacement — resume from the first dropped PSN; the
// default, and byte-for-byte the pre-refactor behaviour), go-back-0 (the
// vendor's original restart-the-whole-message scheme that livelocked),
// and IRN (selective repeat per "Revisiting Network Support for RDMA",
// Mittal et al., SIGCOMM 2018: the responder accepts packets out of
// order and NAKs with a cumulative point plus SACK bitmap, the requester
// retransmits exactly the PSNs proven lost, and flight is capped at the
// path's bandwidth-delay product — the transport that makes a lossless
// fabric optional). Strategy mechanics for IRN live in internal/irn.
package transport

import (
	"fmt"
	"math/rand"

	"rocesim/internal/dcqcn"
	"rocesim/internal/irn"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// Recovery selects the loss-recovery strategy.
type Recovery int

// Recovery schemes (Section 4.1, plus IRN from the follow-on work).
const (
	// GoBack0 restarts the entire message from its first packet on NAK
	// or timeout — the behaviour that livelocked.
	GoBack0 Recovery = iota
	// GoBackN restarts from the first dropped packet.
	GoBackN
	// IRN retransmits selectively from SACK feedback and bounds flight
	// at the path BDP — no PFC required.
	IRN
)

// String names the scheme.
func (r Recovery) String() string {
	switch r {
	case GoBack0:
		return "go-back-0"
	case IRN:
		return "irn"
	default:
		return "go-back-N"
	}
}

// OpKind is the verb of a work request.
type OpKind int

// RDMA verbs used in the paper's experiments.
const (
	OpSend OpKind = iota
	OpWrite
	OpRead
)

// String names the verb.
func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "SEND"
	case OpWrite:
		return "WRITE"
	default:
		return "READ"
	}
}

// Endpoint is what the NIC provides a QP: time, timers, a scheduler kick,
// and a deterministic random stream.
type Endpoint interface {
	Now() simtime.Time
	// NewTimer returns a disarmed timer running fn on the NIC's kernel.
	NewTimer(fn func()) *sim.Timer
	// Kick tells the NIC's transmit scheduler this QP may have become
	// ready.
	Kick()
	Rand() *rand.Rand
	// NextIPID returns the NIC-scoped sequential IP identification value
	// (the livelock experiment's drop rule keys on it).
	NextIPID() uint16
}

// Config parameterizes a QP.
type Config struct {
	QPN     uint32
	PeerQPN uint32
	SrcIP   packet.Addr
	DstIP   packet.Addr
	SrcMAC  packet.MAC
	// GwMAC is the first-hop router (ToR) MAC.
	GwMAC packet.MAC
	// SrcPort is the random-per-QP UDP source port that spreads QPs
	// over ECMP paths.
	SrcPort  uint16
	Priority int
	// DSCP is the code point stamped on emitted packets; 0 means the
	// identity convention DSCP = Priority (the paper's deployment).
	// Multi-tenant fabrics run DSCP = priority × 8 (packet.DSCPForPriority)
	// so each class owns a code-point block.
	DSCP uint8
	// MTU is the payload bytes per packet (1024 in the paper's
	// experiments: 1086-byte frames).
	MTU      int
	Recovery Recovery
	// Strategy, when non-nil, overrides Recovery with a caller-built
	// strategy instance. Instances are stateful and bind to exactly one
	// QP; reusing one across QPs panics.
	Strategy Strategy
	// IRN parameterizes the selective-repeat strategy when Recovery is
	// IRN (nil: BDP cap falls back to Window).
	IRN *irn.Config
	// Window caps outstanding request packets (PSNs) in flight.
	Window int
	// AckEvery makes the responder coalesce ACKs (1 = ack every
	// packet).
	AckEvery int
	// RetxTimeout rearms whenever progress is made; on expiry the
	// requester retransmits per the recovery scheme.
	RetxTimeout simtime.Duration
	// DCQCN enables rate control with the given parameters.
	DCQCN *dcqcn.Params
	// VLAN, when non-nil, tags all data packets (the original
	// VLAN-based PFC deployment). Priority then rides in PCP.
	VLAN *packet.VLANTag
	// Pool, when non-nil, supplies recycled packets for the QP's emissions
	// (data, ACK/NAK, CNP); the receiving NIC returns them after delivery.
	Pool *packet.Pool
	// Metrics, when non-nil, receives device-level aggregates alongside
	// the per-QP Stats (the NIC shares one Metrics across its QPs).
	Metrics *Metrics
	// Trace, when non-nil, receives CNP and retransmit lifecycle events.
	Trace *telemetry.TraceBus
	// Node names the owning device in trace events and metrics.
	Node string
	// Audit, when non-nil, receives transport-sanity callbacks for the
	// invariant layer (WQE/CQE pairing, ACK-window monotonicity). Each
	// call site costs one nil check when unset.
	Audit Auditor
}

// Auditor is the transport-sanity hook the invariant layer implements:
// every posted work request, every completion, and every cumulative-ack
// advance (from exclusive of to) flow through it.
type Auditor interface {
	// WQEPosted fires when a work request is queued on q.
	WQEPosted(q *QP)
	// CQECompleted fires for each op retired at the requester.
	CQECompleted(q *QP, kind OpKind)
	// AckAdvance fires when the cumulative ack point moves from from to
	// to (24-bit PSN space; a sane advance is forward by less than half
	// the space — or, under selective repeat, by anything short of a
	// flight-bound rewind; see the QP's Strategy).
	AckAdvance(q *QP, from, to uint32)
}

// Metrics aggregates transport events across every QP of one device,
// registered under "<device>/<metric>". Per-QP Stats stay available for
// fine-grained assertions; these are what the monitoring stack reads.
type Metrics struct {
	PacketsSent  *telemetry.Counter
	PacketsRetx  *telemetry.Counter
	BytesSent    *telemetry.Counter
	AcksSent     *telemetry.Counter
	NaksSent     *telemetry.Counter
	NaksReceived *telemetry.Counter
	Timeouts     *telemetry.Counter
	CNPsSent     *telemetry.Counter
	CNPsReceived *telemetry.Counter
}

// metricNames names the Metrics counters, in field order.
var metricNames = []telemetry.Metric{
	{Suffix: "/qp_tx_packets"},
	{Suffix: "/qp_retx_packets"},
	{Suffix: "/qp_tx_bytes"},
	{Suffix: "/acks_tx"},
	{Suffix: "/naks_tx"},
	{Suffix: "/naks_rx"},
	{Suffix: "/qp_timeouts"},
	{Suffix: "/cnps_tx"},
	{Suffix: "/cnps_rx"},
}

// RegisterMetrics registers the device-level transport counters, as one
// block.
func RegisterMetrics(r *telemetry.Registry, device string) *Metrics {
	c := r.Counters(device, metricNames)
	return &Metrics{
		PacketsSent:  &c[0],
		PacketsRetx:  &c[1],
		BytesSent:    &c[2],
		AcksSent:     &c[3],
		NaksSent:     &c[4],
		NaksReceived: &c[5],
		Timeouts:     &c[6],
		CNPsSent:     &c[7],
		CNPsReceived: &c[8],
	}
}

// Stats counts transport events for monitoring and the experiment
// harnesses.
type Stats struct {
	PacketsSent    uint64
	PacketsRetx    uint64
	BytesSent      uint64
	AcksSent       uint64
	NaksSent       uint64
	NaksReceived   uint64
	Timeouts       uint64
	MessagesSent   uint64 // completed (acked) requester messages
	MessagesRecv   uint64 // fully received responder messages
	BytesDelivered uint64 // application bytes delivered in order
	CNPsSent       uint64
	CNPsReceived   uint64
}

// op is one posted work request.
type op struct {
	kind     OpKind
	length   int
	firstPSN uint32
	npkts    uint32
	posted   simtime.Time
	onDone   func(posted, completed simtime.Time)
	// Read progress (requester side): next expected response PSN within
	// the current range, and application bytes already delivered in
	// order (kept across go-back-N restarts, zeroed by go-back-0).
	readNext uint32
	readDone int
}

// readServer is responder-side state streaming READ responses.
type readServer struct {
	first   uint32 // first PSN of the response stream
	nextPSN uint32 // next response PSN to emit
	endPSN  uint32 // one past the last PSN of the read
}

// QP is one reliable-connection queue pair.
type QP struct {
	ep    Endpoint
	cfg   Config
	strat Strategy
	pacer *Pacer // cached from strat for the hot paths; strategy-owned
	aud   Auditor

	// Requester state.
	ops     []*op
	nextPSN uint32     // next PSN to assign to a new op
	sndNxt  uint32     // next PSN to transmit
	sndUna  uint32     // oldest unacknowledged PSN
	retx    *sim.Timer // retransmission timer, pushed out on every send and ack

	// Responder state.
	ePSN   uint32 // expected request PSN
	rMSN   uint32
	curMsg int // bytes accumulated for the in-progress message
	reads  []*readServer

	ctl []*packet.Packet // ACK/NAK/CNP awaiting emission

	// OnMessage fires when a complete message arrives in order
	// (responder side). kind distinguishes SENDs (which consume receive
	// WQEs in the verbs layer) from WRITEs (which do not).
	OnMessage func(kind OpKind, size int)

	curKind OpKind // kind of the in-progress inbound message

	S Stats
}

// New creates a QP.
func New(ep Endpoint, cfg Config) *QP {
	if cfg.MTU <= 0 {
		panic("transport: MTU must be positive")
	}
	if cfg.Window <= 0 {
		// RoCE NICs do not run a congestion window: they blast at the
		// (DCQCN-paced) line rate and rely on PFC for losslessness. The
		// default window exists only to bound requester state. The IRN
		// strategy additionally caps flight at the path BDP.
		cfg.Window = 4096
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 1
	}
	if cfg.RetxTimeout <= 0 {
		cfg.RetxTimeout = 500 * simtime.Microsecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{} // nil counters: metrics become no-ops
	}
	q := &QP{ep: ep, cfg: cfg, aud: cfg.Audit}
	q.retx = ep.NewTimer(q.onRetxTimeout)
	q.strat = cfg.Strategy
	if q.strat == nil {
		switch cfg.Recovery {
		case GoBack0:
			q.strat = NewGoBack0()
		case IRN:
			var ic irn.Config
			if cfg.IRN != nil {
				ic = *cfg.IRN
			}
			q.strat = NewIRN(ic)
		default:
			q.strat = NewGoBackN()
		}
	}
	q.strat.bind(q)
	q.pacer = q.strat.pacer()
	return q
}

// Config returns the QP's configuration.
func (q *QP) Config() Config { return q.cfg }

// Strategy returns the QP's bound transport strategy.
func (q *QP) Strategy() Strategy { return q.strat }

// RP exposes the DCQCN reaction point (nil when rate control is off) so
// the invariant layer can attach its bounds check.
func (q *QP) RP() *dcqcn.RP { return q.pacer.RP() }

// SetAuditor installs (or clears) the transport-sanity hook after
// construction — the invariant layer attaches to QPs as they are
// announced, which happens after New. The hook observes every event
// from the next one on; construction state is never replayed.
func (q *QP) SetAuditor(a Auditor) { q.aud = a }

// Rate returns the current DCQCN rate, or 0 when rate control is off.
func (q *QP) Rate() simtime.Rate { return q.pacer.CurrentRate(q.ep.Now()) }

// Post queues a work request. onDone (optional) fires when the op
// completes at the requester (last PSN acknowledged, or last READ
// response received).
func (q *QP) Post(kind OpKind, length int, onDone func(posted, completed simtime.Time)) {
	if length <= 0 {
		panic("transport: non-positive op length")
	}
	n := uint32((length + q.cfg.MTU - 1) / q.cfg.MTU)
	o := &op{
		kind:     kind,
		length:   length,
		firstPSN: q.nextPSN,
		npkts:    n,
		posted:   q.ep.Now(),
		onDone:   onDone,
		readNext: q.nextPSN,
	}
	q.nextPSN = irn.Add(q.nextPSN, n)
	q.ops = append(q.ops, o)
	if q.aud != nil {
		q.aud.WQEPosted(q)
	}
	q.ep.Kick()
}

// Pending returns the number of incomplete posted ops.
func (q *QP) Pending() int { return len(q.ops) }

// opForPSN locates the op covering a PSN.
func (q *QP) opForPSN(psn uint32) *op {
	for _, o := range q.ops {
		if irn.Diff(psn, o.firstPSN) >= 0 && irn.Diff(psn, irn.Add(o.firstPSN, o.npkts)) < 0 {
			return o
		}
	}
	return nil
}

// NextReady returns when the QP can next emit a packet (Forever when it
// has nothing to say).
func (q *QP) NextReady(now simtime.Time) simtime.Time {
	if len(q.ctl) > 0 || q.readResponsePending() {
		if q.pacer.at.After(now) && q.readResponsePending() && len(q.ctl) == 0 {
			return q.pacer.at // read responses are paced like data
		}
		return now
	}
	if !q.strat.hasData(q) {
		return simtime.Forever
	}
	if q.pacer.at.After(now) {
		return q.pacer.at
	}
	return now
}

func (q *QP) readResponsePending() bool { return len(q.reads) > 0 }

// Pop emits the next packet. It must only be called when
// NextReady(now) <= now. Returns nil when there is nothing to send
// (racing conditions resolve to nil, never panic).
func (q *QP) Pop(now simtime.Time) *packet.Packet {
	// Control first: ACK/NAK/CNP are never paced.
	if len(q.ctl) > 0 {
		p := q.ctl[0]
		q.ctl = q.ctl[1:]
		return p
	}
	// Read responses next (responder duty), paced.
	if len(q.reads) > 0 && !q.pacer.at.After(now) {
		return q.popReadResponse(now)
	}
	if !q.strat.hasData(q) || q.pacer.at.After(now) {
		return nil
	}
	return q.strat.popRequest(q, now)
}

// emitRequest builds, accounts, and paces the request packet carrying
// psn of op o. When advance is set the send sequence moves past the
// emitted range (the new-data path); selective retransmissions leave
// sndNxt alone.
func (q *QP) emitRequest(o *op, psn uint32, now simtime.Time, advance bool) *packet.Packet {
	idx := uint32(irn.Diff(psn, o.firstPSN))
	p := q.newDataPacket()
	bth := p.BTH
	bth.PSN = psn

	// Note: sndNxt may legitimately trail sndUna during go-back-0
	// recovery — the sender re-walks packets the responder has already
	// acknowledged as duplicates.

	switch o.kind {
	case OpRead:
		// A read request names the first PSN of its response range and
		// consumes npkts PSNs. After recovery, the op carries a fresh
		// range covering only the remaining bytes (go-back-N, IRN) or
		// the whole message (go-back-0).
		bth.Opcode = packet.OpReadRequest
		bth.PSN = o.firstPSN
		p.AttachRETH().DMALen = uint32(o.length - o.readDone)
		p.PayloadLen = 0
		if advance {
			q.sndNxt = irn.Add(o.firstPSN, o.npkts)
		}
	default:
		last := idx == o.npkts-1
		seg := q.cfg.MTU
		if last {
			seg = o.length - int(idx)*q.cfg.MTU
		}
		p.PayloadLen = seg
		bth.AckReq = last || (int(idx+1)%q.cfg.AckEvery == 0)
		switch {
		case o.kind == OpSend && o.npkts == 1:
			bth.Opcode = packet.OpSendOnly
		case o.kind == OpSend && idx == 0:
			bth.Opcode = packet.OpSendFirst
		case o.kind == OpSend && last:
			bth.Opcode = packet.OpSendLast
		case o.kind == OpSend:
			bth.Opcode = packet.OpSendMiddle
		case o.kind == OpWrite && o.npkts == 1:
			bth.Opcode = packet.OpWriteOnly
			p.AttachRETH().DMALen = uint32(o.length)
		case o.kind == OpWrite && idx == 0:
			bth.Opcode = packet.OpWriteFirst
			p.AttachRETH().DMALen = uint32(o.length)
		case o.kind == OpWrite && last:
			bth.Opcode = packet.OpWriteLast
		default:
			bth.Opcode = packet.OpWriteMiddle
		}
		if advance {
			q.sndNxt = irn.Add(psn, 1)
		}
	}

	q.account(p, now)
	q.armRetx()
	return p
}

// account counts an emitted request or read-response packet and charges
// it to the pacer.
func (q *QP) account(p *packet.Packet, now simtime.Time) {
	wire := p.WireLen()
	q.S.PacketsSent++
	q.S.BytesSent += uint64(wire)
	q.cfg.Metrics.PacketsSent.Inc()
	q.cfg.Metrics.BytesSent.Add(uint64(wire))
	q.pacer.Charge(now, wire)
}

// mtuWireLen is the wire size of a full-MTU data segment — what the IRN
// strategy converts its byte BDP cap with.
func (q *QP) mtuWireLen() int {
	n := packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen +
		packet.BTHLen + q.cfg.MTU + packet.ICRCLen + packet.EthernetFCSLen
	if q.cfg.VLAN != nil {
		n += packet.VLANTagLen
	}
	return n
}

// popReadResponse emits the next responder-side READ response packet.
func (q *QP) popReadResponse(now simtime.Time) *packet.Packet {
	rs := q.reads[0]
	n := uint32(irn.Diff(rs.endPSN, rs.nextPSN))
	p := q.newDataPacket()
	p.BTH.PSN = rs.nextPSN
	first := rs.nextPSN == rs.first
	last := n == 1
	switch {
	case first && last:
		p.BTH.Opcode = packet.OpReadResponseOnly
		*p.AttachAETH() = packet.AETH{Syndrome: packet.AETHAck, MSN: q.rMSN}
	case first:
		p.BTH.Opcode = packet.OpReadResponseFirst
		*p.AttachAETH() = packet.AETH{Syndrome: packet.AETHAck, MSN: q.rMSN}
	case last:
		p.BTH.Opcode = packet.OpReadResponseLast
		*p.AttachAETH() = packet.AETH{Syndrome: packet.AETHAck, MSN: q.rMSN}
	default:
		p.BTH.Opcode = packet.OpReadResponseMiddle
	}
	p.PayloadLen = q.cfg.MTU
	rs.nextPSN = irn.Add(rs.nextPSN, 1)
	if rs.nextPSN == rs.endPSN {
		q.reads = q.reads[1:]
	}
	q.account(p, now)
	return p
}

// newDataPacket builds the common header stack, drawing from the pool
// when one is wired so a steady-state flow emits without allocating.
func (q *QP) newDataPacket() *packet.Packet {
	var p *packet.Packet
	if q.cfg.Pool != nil {
		p = q.cfg.Pool.Get()
	} else {
		p = &packet.Packet{}
	}
	dscp := q.cfg.DSCP
	if dscp == 0 {
		dscp = uint8(q.cfg.Priority)
	}
	p.Eth = packet.Ethernet{Dst: q.cfg.GwMAC, Src: q.cfg.SrcMAC, EtherType: packet.EtherTypeIPv4}
	*p.AttachIP() = packet.IPv4{
		DSCP:     dscp,
		ECN:      packet.ECNECT0,
		ID:       q.ep.NextIPID(),
		TTL:      64,
		Protocol: packet.ProtoUDP,
		Src:      q.cfg.SrcIP,
		Dst:      q.cfg.DstIP,
	}
	*p.AttachUDP() = packet.UDP{SrcPort: q.cfg.SrcPort, DstPort: packet.RoCEv2Port}
	*p.AttachBTH() = packet.BTH{DestQP: q.cfg.PeerQPN, PKey: 0xffff}
	if q.cfg.VLAN != nil {
		v := p.AttachVLAN()
		*v = *q.cfg.VLAN
		v.PCP = uint8(q.cfg.Priority)
	}
	return p
}

// newCtl builds a header stack for ACK/NAK/CNP.
func (q *QP) newCtl(op packet.Opcode) *packet.Packet {
	p := q.newDataPacket()
	p.BTH.Opcode = op
	p.PayloadLen = 0
	return p
}

// armRetx (re)arms the retransmission timer for the duration the
// strategy picks now (per-flow for IRN, the QP-wide RetxTimeout
// otherwise).
func (q *QP) armRetx() {
	q.retx.Reset(q.strat.retxTimeout(q))
}

// onRetxTimeout fires when no progress has been made for RetxTimeout.
func (q *QP) onRetxTimeout() {
	if len(q.ops) == 0 {
		return
	}
	q.S.Timeouts++
	q.cfg.Metrics.Timeouts.Inc()
	q.traceRetx("timeout")
	q.strat.onTimeout(q)
	q.ep.Kick()
	q.armRetx()
}

// traceRetx emits a retransmission lifecycle event. Retransmissions carry
// no packet (the resends materialize later from the scheduler), so the
// event names the flow explicitly for the tracer's victim attribution.
func (q *QP) traceRetx(reason string) {
	if q.cfg.Trace.Wants(telemetry.EvRetransmit.Mask()) {
		q.cfg.Trace.Emit(telemetry.Event{
			Type: telemetry.EvRetransmit, Node: q.cfg.Node, Port: -1,
			Pri: q.cfg.Priority, Reason: reason,
			Flow: packet.FlowKey{
				Src: q.cfg.SrcIP, Dst: q.cfg.DstIP, Proto: packet.ProtoUDP,
				SrcPort: q.cfg.SrcPort, DstPort: packet.RoCEv2Port,
			},
		})
	}
}

// reflow reassigns contiguous PSN ranges to ops[from:] starting at psn —
// needed after a go-back-0 or READ restart invalidates the old mapping.
func (q *QP) reflow(from int, psn uint32) {
	for i := from; i < len(q.ops); i++ {
		o := q.ops[i]
		o.firstPSN = psn
		if o.kind == OpRead {
			o.readNext = psn
		}
		psn = irn.Add(psn, o.npkts)
	}
	q.nextPSN = psn
}

// recoverRead re-issues the READ at the head of the op queue on a fresh
// PSN range positioned at the responder's expected PSN: the end of the
// previous range if the responder consumed the request, or the NAK'd PSN
// if the request itself was lost. zero restarts the response stream from
// byte 0 (go-back-0); otherwise only the remaining bytes are re-read.
// Every strategy recovers READs this way — response streams have no
// per-packet feedback channel for selective repeat.
func (q *QP) recoverRead(missing uint32, fromNak, zero bool) {
	o := q.ops[0]
	start := irn.Add(o.firstPSN, o.npkts)
	if fromNak {
		start = missing
	}
	if zero {
		o.readDone = 0
	}
	remaining := o.length - o.readDone
	o.npkts = uint32((remaining + q.cfg.MTU - 1) / q.cfg.MTU)
	o.firstPSN = start
	o.readNext = start
	q.sndNxt = start
	q.sndUna = start
	q.S.PacketsRetx++
	q.cfg.Metrics.PacketsRetx.Inc()
	q.reflow(1, irn.Add(start, o.npkts))
	q.strat.resetRequester(q)
}

// HandlePacket processes a RoCE packet addressed to this QP (after the
// NIC's receive pipeline).
func (q *QP) HandlePacket(p *packet.Packet) {
	bth := p.BTH
	if bth == nil {
		return
	}
	switch {
	case bth.Opcode == packet.OpCNP:
		q.S.CNPsReceived++
		q.cfg.Metrics.CNPsReceived.Inc()
		q.pacer.OnCNP(q.ep.Now())
		return
	case bth.Opcode == packet.OpAcknowledge:
		q.handleAck(p)
	case bth.Opcode.IsReadResponse():
		q.handleReadResponse(p)
	case bth.Opcode.IsRequest():
		q.handleRequest(p)
	}
	q.ep.Kick()
}

// maybeCNP emits a CNP if the packet was CE-marked (NP side of DCQCN).
func (q *QP) maybeCNP(p *packet.Packet) {
	if q.pacer.np == nil || p.IP == nil || p.IP.ECN != packet.ECNCE {
		return
	}
	if q.pacer.np.OnCE(q.ep.Now()) {
		cnp := q.newCtl(packet.OpCNP)
		cnp.IP.ECN = packet.ECNNotECT
		q.ctl = append(q.ctl, cnp)
		q.S.CNPsSent++
		q.cfg.Metrics.CNPsSent.Inc()
		if q.cfg.Trace.Wants(telemetry.EvCNP.Mask()) {
			q.cfg.Trace.Emit(telemetry.Event{
				Type: telemetry.EvCNP, Node: q.cfg.Node, Port: -1,
				Pri: q.cfg.Priority, Pkt: cnp,
			})
		}
	}
}

// handleRequest is the responder path for SEND/WRITE segments and READ
// requests. Out-of-sequence arrivals go to the strategy: cumulative
// schemes NAK and drop, selective repeat buffers and SACKs.
func (q *QP) handleRequest(p *packet.Packet) {
	q.maybeCNP(p)
	bth := p.BTH
	d := irn.Diff(bth.PSN, q.ePSN)
	switch {
	case d > 0:
		q.strat.onGap(q, p)
		return
	case d < 0:
		// Duplicate (resent after a lost ACK): re-acknowledge.
		ack := q.newCtl(packet.OpAcknowledge)
		*ack.AttachAETH() = packet.AETH{Syndrome: packet.AETHAck, MSN: q.rMSN}
		ack.BTH.PSN = irn.Add(q.ePSN, ^uint32(0)&packet.PSNMask) // ePSN-1
		q.ctl = append(q.ctl, ack)
		q.S.AcksSent++
		q.cfg.Metrics.AcksSent.Inc()
		return
	}
	// In order.
	var dma uint32
	if p.RETH != nil {
		dma = p.RETH.DMALen
	}
	q.acceptInOrder(bth.Opcode, bth.PSN, p.PayloadLen, bth.AckReq, dma)
	q.strat.afterInOrder(q)
}

// acceptInOrder applies one in-sequence request packet (psn == ePSN) to
// responder state: opcode semantics, message accounting, ACK
// generation. The selective-repeat drain path replays buffered arrivals
// through it as the expected PSN advances.
func (q *QP) acceptInOrder(opcode packet.Opcode, psn uint32, payloadLen int, ackReq bool, dmaLen uint32) {
	if opcode == packet.OpReadRequest {
		// A new request supersedes any stream still draining: the
		// requester re-issues reads on recovery and ignores the old
		// range, so serving it further only wastes the wire.
		q.reads = q.reads[:0]
		n := (int(dmaLen) + q.cfg.MTU - 1) / q.cfg.MTU
		q.reads = append(q.reads, &readServer{
			first:   psn,
			nextPSN: psn,
			endPSN:  irn.Add(psn, uint32(n)),
		})
		q.ePSN = irn.Add(psn, uint32(n))
		q.rMSN = (q.rMSN + 1) & packet.PSNMask
		return
	}

	q.ePSN = irn.Add(q.ePSN, 1)
	if opcode.IsFirst() || opcode == packet.OpSendOnly || opcode == packet.OpWriteOnly {
		q.curMsg = 0 // a restarted message (go-back-0) discards partial state
		q.curKind = OpWrite
		switch opcode {
		case packet.OpSendFirst, packet.OpSendOnly:
			q.curKind = OpSend
		}
	}
	q.curMsg += payloadLen
	q.S.BytesDelivered += uint64(payloadLen)
	if opcode.IsLast() {
		q.rMSN = (q.rMSN + 1) & packet.PSNMask
		q.S.MessagesRecv++
		if q.OnMessage != nil {
			q.OnMessage(q.curKind, q.curMsg)
		}
		q.curMsg = 0
	}
	if ackReq {
		ack := q.newCtl(packet.OpAcknowledge)
		*ack.AttachAETH() = packet.AETH{Syndrome: packet.AETHAck, MSN: q.rMSN}
		ack.BTH.PSN = psn
		q.ctl = append(q.ctl, ack)
		q.S.AcksSent++
		q.cfg.Metrics.AcksSent.Inc()
	}
}

// handleAck is the requester path for ACK and NAK.
func (q *QP) handleAck(p *packet.Packet) {
	a := p.AETH
	if a == nil {
		return
	}
	if a.IsNak() {
		q.S.NaksReceived++
		q.cfg.Metrics.NaksReceived.Inc()
		q.strat.onNak(q, p)
		return
	}
	acked := irn.Add(p.BTH.PSN, 1)
	if irn.Diff(acked, q.sndUna) <= 0 {
		return // stale
	}
	from := q.sndUna
	q.sndUna = acked
	if q.aud != nil {
		q.aud.AckAdvance(q, from, acked)
	}
	q.strat.onCumAdvance(q, from, acked)
	q.completeOps() // stops the timer when nothing is left outstanding
	if len(q.ops) > 0 {
		q.armRetx()
	}
}

// handleReadResponse is the requester path for READ response streams.
func (q *QP) handleReadResponse(p *packet.Packet) {
	q.maybeCNP(p)
	if len(q.ops) == 0 {
		return
	}
	o := q.ops[0]
	if o.kind != OpRead {
		return
	}
	d := irn.Diff(p.BTH.PSN, o.readNext)
	if d != 0 {
		if d > 0 && irn.Diff(p.BTH.PSN, irn.Add(o.firstPSN, o.npkts)) < 0 {
			// Gap within the current response stream: re-issue the
			// request for what is missing.
			q.traceRetx("read-gap")
			q.strat.onReadGap(q, o.readNext)
			q.armRetx()
			q.ep.Kick()
		}
		return
	}
	o.readNext = irn.Add(o.readNext, 1)
	o.readDone += p.PayloadLen
	q.S.BytesDelivered += uint64(p.PayloadLen)
	end := irn.Add(o.firstPSN, o.npkts)
	if o.readNext == end {
		from := q.sndUna
		q.sndUna = end
		if q.aud != nil && from != end {
			q.aud.AckAdvance(q, from, end)
		}
		if from != end {
			q.strat.onCumAdvance(q, from, end)
		}
		q.completeOps()
	} else {
		q.armRetx()
	}
}

// completeOps retires ops fully covered by sndUna.
func (q *QP) completeOps() {
	now := q.ep.Now()
	for len(q.ops) > 0 {
		o := q.ops[0]
		if o.kind == OpRead && o.readDone < o.length {
			break // reads complete only via their response stream
		}
		end := irn.Add(o.firstPSN, o.npkts)
		if irn.Diff(q.sndUna, end) < 0 {
			break
		}
		q.ops = q.ops[1:]
		q.S.MessagesSent++
		if q.aud != nil {
			q.aud.CQECompleted(q, o.kind)
		}
		if o.onDone != nil {
			o.onDone(o.posted, now)
		}
	}
	if len(q.ops) == 0 {
		q.retx.Stop()
	}
}

// String summarizes the QP.
func (q *QP) String() string {
	return fmt.Sprintf("QP%d->%d %s pri=%d", q.cfg.QPN, q.cfg.PeerQPN, q.strat.Name(), q.cfg.Priority)
}
