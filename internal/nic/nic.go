// Package nic models the RoCEv2-capable RDMA NIC of the paper: the
// receive pipeline with its buffer-threshold PFC generation, the MTT
// cache behind the slow-receiver symptom, the malfunction mode that
// produces NIC PFC pause frame storms, the micro-controller watchdog that
// contains them, and the transmit scheduler that serves queue pairs under
// DCQCN pacing.
package nic

import (
	"fmt"
	"math/bits"
	"math/rand"

	"rocesim/internal/dcqcn"
	"rocesim/internal/link"
	"rocesim/internal/packet"
	"rocesim/internal/pfc"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
	"rocesim/internal/transport"
)

// WatchdogConfig tunes the NIC-side PFC storm watchdog (the
// micro-controller that monitors the receive pipeline).
type WatchdogConfig struct {
	Enabled bool
	// Window is how long the pipeline must be stopped while generating
	// pauses before pause generation is disabled (paper default:
	// 100 ms).
	Window simtime.Duration
	// Poll is the micro-controller's sampling period.
	Poll simtime.Duration
}

// DefaultWatchdog returns the paper's NIC watchdog settings.
func DefaultWatchdog() WatchdogConfig {
	return WatchdogConfig{Enabled: true, Window: 100 * simtime.Millisecond, Poll: 10 * simtime.Millisecond}
}

// Config parameterizes a NIC.
type Config struct {
	Name string
	MAC  packet.MAC
	IP   packet.Addr
	// RxBufBytes is the receive buffer; RxXOFF/RxXON are the PFC
	// thresholds over it.
	RxBufBytes int
	RxXOFF     int
	RxXON      int
	// ProcTime is the per-packet base cost of the receive pipeline.
	ProcTime simtime.Duration
	// MTT, when non-nil, charges a MissPenalty per translation miss —
	// the slow-receiver symptom.
	MTT         *MTTConfig
	MissPenalty simtime.Duration
	// LosslessMask is the priorities the NIC pauses when its buffer
	// fills.
	LosslessMask uint8
	// CNPPriority, when > 0, is the dedicated traffic class CNPs are
	// emitted in (spiderpool's GPU_CNP_PRIORITY=6 convention); 0 means
	// CNPs ride their QP's data class, the paper's deployment. A CNP
	// class misprogrammed into a lossy priority is one of the cross-class
	// config faults the chaos campaign injects.
	CNPPriority int
	// DSCPOf, when non-nil, is the priority→DSCP encoding the NIC stamps
	// on rewritten packets (CNP class override); nil means identity.
	DSCPOf   func(pri int) uint8
	Watchdog WatchdogConfig
}

// DefaultConfig returns a 40GbE-class NIC: 512 KB receive buffer with
// XOFF/XON at 384/256 KB, 25 ns per-packet pipeline (40 Mpps), lossless
// priorities 3 and 4.
func DefaultConfig(name string, mac packet.MAC, ip packet.Addr) Config {
	return Config{
		Name:         name,
		MAC:          mac,
		IP:           ip,
		RxBufBytes:   512 << 10,
		RxXOFF:       384 << 10,
		RxXON:        256 << 10,
		ProcTime:     25 * simtime.Nanosecond,
		LosslessMask: 1<<3 | 1<<4,
	}
}

// Stats exposes the NIC-level counters, registered in the kernel's
// telemetry registry under "<name>/<metric>". Read with .Value().
type Stats struct {
	RxFrames       *telemetry.Counter
	RxBytes        *telemetry.Counter
	TxFrames       *telemetry.Counter
	RxPause        *telemetry.Counter
	TxPause        *telemetry.Counter
	MACMismatch    *telemetry.Counter
	RxOverflow     *telemetry.Counter // receive buffer exhausted (lossless violation)
	UnknownQP      *telemetry.Counter
	WatchdogTrips  *telemetry.Counter
	MTTMisses      *telemetry.Counter // translation-cache misses (slow receiver)
	PipelineStalls *telemetry.Counter // receive-pipeline stalls (all causes)
}

// statsMetrics names the Stats counters, in field order.
var statsMetrics = []telemetry.Metric{
	{Suffix: "/rx_frames"},
	{Suffix: "/rx_bytes"},
	{Suffix: "/tx_frames"},
	{Suffix: "/pause_rx"},
	{Suffix: "/pause_tx"},
	{Suffix: "/mac_mismatch_drops"},
	{Suffix: "/rx_overflow_drops"},
	{Suffix: "/unknown_qp_drops"},
	{Suffix: "/watchdog_trips"},
	{Suffix: "/mtt_misses"},
	{Suffix: "/pipeline_stalls"},
}

// newStats registers the NIC counter set for one device, as one block.
func newStats(r *telemetry.Registry, name string) Stats {
	c := r.Counters(name, statsMetrics)
	return Stats{
		RxFrames:       &c[0],
		RxBytes:        &c[1],
		TxFrames:       &c[2],
		RxPause:        &c[3],
		TxPause:        &c[4],
		MACMismatch:    &c[5],
		RxOverflow:     &c[6],
		UnknownQP:      &c[7],
		WatchdogTrips:  &c[8],
		MTTMisses:      &c[9],
		PipelineStalls: &c[10],
	}
}

// NIC is one RDMA-capable network interface.
type NIC struct {
	k   *sim.Kernel
	cfg Config
	lk  *link.Link
	eg  *link.Egress

	pauser *pfc.Refresher
	rng    *rand.Rand
	ipid   uint16
	uid    uint64 // sender-scoped packet UID counter, for tracing
	trace  *telemetry.TraceBus
	tm     *transport.Metrics // lazily registered device-level transport metrics
	dm     *dcqcn.Metrics     // lazily registered device-level DCQCN metrics

	qps   map[uint32]*transport.QP
	order []*transport.QP // creation order, served round-robin by txKick
	// kicked has bit i set while order[i] may have something to send: its
	// Kick sets it, and txKick clears it when NextReady answers Forever.
	// Every change that can give a QP work (Post, HandlePacket, a
	// retransmission timeout) ends in that QP's Kick.
	kicked  []uint64
	rrIdx   int
	txTimer *sim.Timer // wake-up at the earliest paced send, allocated on its first arm

	rxQueue  link.Ring[*packet.Packet]
	rxBytes  int
	busy     bool
	pipeDone sim.Event // resident pipeline-completion callback
	lastProc simtime.Time
	mtt      *MTT
	// Malfunction models the receive-pipeline bug behind the paper's
	// PFC storms: the pipeline stops and the NIC pauses its ToR
	// continuously.
	malfunction bool
	// rxSlowdown is added to every pipeline traversal — the generalized
	// slow-receiver degradation (§6.3 without the cache model).
	rxSlowdown simtime.Duration
	wd         *pfc.Watchdog

	// OnHostPacket receives non-RoCE IP packets (the kernel TCP path).
	// TCP bypasses the RDMA receive pipeline: real NICs steer it to
	// separate host rings.
	OnHostPacket func(*packet.Packet)

	S Stats
}

var _ link.Endpoint = (*NIC)(nil)

// New creates a NIC.
func New(k *sim.Kernel, cfg Config) *NIC {
	if cfg.RxXON <= 0 || cfg.RxXOFF <= cfg.RxXON || cfg.RxBufBytes < cfg.RxXOFF {
		panic(fmt.Sprintf("nic %s: inconsistent rx thresholds", cfg.Name))
	}
	n := &NIC{
		k:     k,
		cfg:   cfg,
		rng:   k.Rand("nic/" + cfg.Name),
		qps:   make(map[uint32]*transport.QP),
		wd:    pfc.NewWatchdog(cfg.Watchdog.Window),
		trace: k.Trace(),
		S:     newStats(k.Metrics(), cfg.Name),
	}
	n.pipeDone = n.finishPipeline
	if cfg.MTT != nil {
		n.mtt = NewMTT(*cfg.MTT)
	}
	if cfg.Watchdog.Enabled {
		k.NewTicker(cfg.Watchdog.Poll, n.pollWatchdog)
	}
	k.Announce(n)
	return n
}

// Attach connects the NIC to side of l (its single port).
func (n *NIC) Attach(l *link.Link, side int) {
	n.lk = l
	n.eg = link.NewEgress(n.k, l, side)
	n.eg.OnTransmit = func(it link.Item) {
		n.S.TxFrames.Inc()
		if n.trace.Wants(telemetry.EvDequeue.Mask()) {
			n.trace.Emit(telemetry.Event{
				Type: telemetry.EvDequeue, Node: n.cfg.Name, Port: 0,
				Pri: int(it.Pri), Pkt: it.P,
			})
		}
		n.txKick()
	}
	n.pauser = pfc.NewRefresher(n.k, n.cfg.MAC, l.Rate(), func(p *packet.Packet) {
		n.S.TxPause.Inc()
		n.eg.EnqueueControl(p)
	})
	n.pauser.Pool = n.k.PacketPool()
	pfc.RegisterMetrics(n.k.Metrics(), n.cfg.Name,
		func() *pfc.PauseState { return n.eg.Pause }, n.pauser, n.cfg.LosslessMask)
	l.Attach(side, n, 0)
}

// Name returns the NIC name.
func (n *NIC) Name() string { return n.cfg.Name }

// Kernel returns the kernel (shard) this NIC runs on — the link layer's
// KernelOwner hook.
func (n *NIC) Kernel() *sim.Kernel { return n.k }

// Now returns the simulated clock (for layers above the NIC that stamp
// completions).
func (n *NIC) Now() simtime.Time { return n.k.Now() }

// MAC returns the NIC's MAC address.
func (n *NIC) MAC() packet.MAC { return n.cfg.MAC }

// IP returns the NIC's IP address.
func (n *NIC) IP() packet.Addr { return n.cfg.IP }

// Config returns the NIC's configuration.
func (n *NIC) Config() Config { return n.cfg }

// Egress exposes the transmit queue (tests, monitoring).
func (n *NIC) Egress() *link.Egress { return n.eg }

// Pauser exposes the PFC generator (tests, monitoring).
func (n *NIC) Pauser() *pfc.Refresher { return n.pauser }

// MTT exposes the translation cache (nil when not configured).
func (n *NIC) MTT() *MTT { return n.mtt }

// RxQueueBytes returns the receive-buffer occupancy.
func (n *NIC) RxQueueBytes() int { return n.rxBytes }

// SetMalfunction switches the receive-pipeline bug on or off. While on,
// the NIC processes nothing and generates pause frames continuously —
// the PFC storm.
func (n *NIC) SetMalfunction(on bool) {
	n.malfunction = on
	if on {
		n.pauseAll()
	} else {
		n.startPipeline()
	}
}

// Malfunctioning reports the malfunction state.
func (n *NIC) Malfunctioning() bool { return n.malfunction }

// SetRxSlowdown adds d to the receive pipeline's per-packet cost (zero
// restores full speed) — a degraded-but-alive receiver that backpressures
// the fabric through PFC without ever stopping, unlike SetMalfunction.
func (n *NIC) SetRxSlowdown(d simtime.Duration) { n.rxSlowdown = d }

// PauseDisabled reports whether the watchdog has cut off pause
// generation.
func (n *NIC) PauseDisabled() bool { return n.pauser.Disabled }

func (n *NIC) pauseAll() {
	if n.pauser.Disabled {
		// The watchdog cut pause generation off; re-latching engaged
		// bits (or emitting XOFF trace edges nothing will ever pair)
		// would diverge the generator state from the wire.
		return
	}
	for pri := 0; pri < 8; pri++ {
		if n.cfg.LosslessMask&(1<<uint(pri)) == 0 {
			continue
		}
		if n.trace.Wants(telemetry.EvPauseXOFF.Mask()) && n.pauser.Engaged()&(1<<uint(pri)) == 0 {
			n.trace.Emit(telemetry.Event{
				Type: telemetry.EvPauseXOFF, Node: n.cfg.Name, Port: 0, Pri: pri,
			})
		}
		n.pauser.Pause(pri)
	}
}

func (n *NIC) resumeAll() {
	for pri := 0; pri < 8; pri++ {
		if n.cfg.LosslessMask&(1<<uint(pri)) == 0 {
			continue
		}
		if n.trace.Wants(telemetry.EvPauseXON.Mask()) && n.pauser.Engaged()&(1<<uint(pri)) != 0 {
			n.trace.Emit(telemetry.Event{
				Type: telemetry.EvPauseXON, Node: n.cfg.Name, Port: 0, Pri: pri,
			})
		}
		n.pauser.Resume(pri)
	}
}

// CreateQP registers a queue pair on this NIC. The transport fills
// SrcMAC/SrcIP from the NIC.
func (n *NIC) CreateQP(cfg transport.Config) *transport.QP {
	cfg.SrcMAC = n.cfg.MAC
	cfg.SrcIP = n.cfg.IP
	if cfg.DSCP == 0 && n.cfg.DSCPOf != nil {
		cfg.DSCP = n.cfg.DSCPOf(cfg.Priority)
	}
	if cfg.SrcPort == 0 {
		cfg.SrcPort = uint16(49152 + n.rng.Intn(16384))
	}
	// All QPs of one NIC share the device-level transport and DCQCN
	// aggregates, registered on first use.
	if n.tm == nil {
		n.tm = transport.RegisterMetrics(n.k.Metrics(), n.cfg.Name)
	}
	cfg.Metrics = n.tm
	cfg.Trace = n.k.Trace()
	cfg.Node = n.cfg.Name
	cfg.Pool = n.k.PacketPool()
	if cfg.DCQCN != nil {
		if n.dm == nil {
			n.dm = dcqcn.RegisterMetrics(n.k.Metrics(), n.cfg.Name)
		}
		p := *cfg.DCQCN
		p.Metrics = n.dm
		cfg.DCQCN = &p
	}
	i := len(n.order)
	if i&63 == 0 {
		n.kicked = append(n.kicked, 0)
	}
	q := transport.New(qpEndpoint{n, i}, cfg)
	if _, dup := n.qps[cfg.QPN]; dup {
		panic(fmt.Sprintf("nic %s: duplicate QPN %d", n.cfg.Name, cfg.QPN))
	}
	n.qps[cfg.QPN] = q
	n.order = append(n.order, q)
	n.k.Announce(q)
	return q
}

// QP returns a registered queue pair.
func (n *NIC) QP(qpn uint32) *transport.QP { return n.qps[qpn] }

// SendHostPacket transmits a host-stack (e.g. TCP) packet at the given
// priority. The NIC stamps its source MAC.
func (n *NIC) SendHostPacket(p *packet.Packet, pri int) {
	p.Eth.Src = n.cfg.MAC
	n.inject(p, pri)
}

// inject stamps the sender-scoped UID on an outbound frame, emits the
// injection lifecycle event, and enqueues it on the egress. The UID plus
// the five-tuple identify the packet at every later hop, which is what
// lets the flow tracer attribute per-hop queueing delay.
func (n *NIC) inject(p *packet.Packet, pri int) {
	n.uid++
	p.UID = n.uid
	if n.trace.Wants(telemetry.EvInject.Mask()) {
		n.trace.Emit(telemetry.Event{
			Type: telemetry.EvInject, Node: n.cfg.Name, Port: 0, Pri: pri, Pkt: p,
		})
	}
	n.eg.Enqueue(link.Item{P: p, IngressPort: -1, Pri: int8(pri)})
}

// dscpOf applies the configured priority→DSCP encoding (identity when
// unset).
func (n *NIC) dscpOf(pri int) uint8 {
	if n.cfg.DSCPOf != nil {
		return n.cfg.DSCPOf(pri)
	}
	return uint8(pri)
}

// SetCNPPriority reprograms the class CNPs are emitted in at runtime
// (0 restores ride-with-data). Declared config: the drift checker sees
// a misprogrammed CNP class through the NIC reader's "cnp_prio" key.
func (n *NIC) SetCNPPriority(pri int) { n.cfg.CNPPriority = pri }

// qpEndpoint adapts the NIC to transport.Endpoint for the QP at index i
// of the NIC's order.
type qpEndpoint struct {
	n *NIC
	i int
}

func (e qpEndpoint) Now() simtime.Time             { return e.n.k.Now() }
func (e qpEndpoint) NewTimer(fn func()) *sim.Timer { return e.n.k.NewTimer(fn) }
func (e qpEndpoint) Rand() *rand.Rand              { return e.n.rng }

func (e qpEndpoint) Kick() {
	e.n.kicked[e.i>>6] |= 1 << (e.i & 63)
	e.n.txKick()
}

func (e qpEndpoint) NextIPID() uint16 {
	e.n.ipid++
	return e.n.ipid
}

// txKick runs the transmit scheduler: feed the egress while it is
// shallow, round-robin over ready QPs.
func (n *NIC) txKick() {
	if n.eg == nil {
		return
	}
	now := n.k.Now()
	for n.eg.TotalQueued() < 4096 { // keep ~3 frames of backlog
		q, p, earliest := n.nextPacket(now)
		if p == nil {
			if earliest != simtime.Forever {
				if n.txTimer == nil {
					n.txTimer = n.k.NewTimer(n.txKick)
				}
				n.txTimer.ResetAt(earliest)
			}
			return
		}
		pri := q.Config().Priority
		if p.IsCNP() && n.cfg.CNPPriority > 0 {
			// Dedicated CNP class: the notification leaves in its own
			// priority, re-stamped so every hop classifies it there.
			pri = n.cfg.CNPPriority
			if p.IP != nil {
				p.IP.DSCP = n.dscpOf(pri)
			}
			if p.VLAN != nil {
				p.VLAN.PCP = uint8(pri)
			}
		}
		n.inject(p, pri)
	}
}

// nextPacket visits the kicked QPs round-robin from rrIdx. The first
// with a packet due now yields it, and the turn passes to the QP after
// it. Otherwise nextPacket returns the earliest time a visited QP will
// have one, Forever when none will. Skipping a QP that is not kicked is
// visiting it: its NextReady would answer Forever.
func (n *NIC) nextPacket(now simtime.Time) (*transport.QP, *packet.Packet, simtime.Time) {
	earliest := simtime.Forever
	lo, hi := n.rrIdx, len(n.order)
	for pass := 0; pass < 2; pass++ {
		for i := n.nextKicked(lo, hi); i < hi; i = n.nextKicked(i+1, hi) {
			q := n.order[i]
			switch at := q.NextReady(now); {
			case at == simtime.Forever:
				n.kicked[i>>6] &^= 1 << (i & 63)
			case at.After(now):
				if at.Before(earliest) {
					earliest = at
				}
			default:
				if p := q.Pop(now); p != nil {
					if n.rrIdx = i + 1; n.rrIdx == len(n.order) {
						n.rrIdx = 0
					}
					return q, p, earliest
				}
			}
		}
		lo, hi = 0, n.rrIdx
	}
	return nil, nil, earliest
}

// nextKicked returns the index of the first kicked QP in [i, hi), or hi.
func (n *NIC) nextKicked(i, hi int) int {
	for ; i < hi; i = (i | 63) + 1 {
		if w := n.kicked[i>>6] >> (i & 63); w != 0 {
			if j := i + bits.TrailingZeros64(w); j < hi {
				return j
			}
			return hi
		}
	}
	return hi
}

// Receive implements link.Endpoint.
func (n *NIC) Receive(_ int, p *packet.Packet) {
	size := p.WireLen()
	n.S.RxFrames.Inc()
	n.S.RxBytes.Add(uint64(size))

	if p.IsPause() {
		n.S.RxPause.Inc()
		n.eg.Pause.Handle(n.k.Now(), p.Pause)
		n.eg.Kick()
		n.k.PacketPool().Put(p) // pause state absorbed; the frame is dead
		return
	}
	if p.Eth.Dst != n.cfg.MAC && !p.Eth.Dst.IsMulticast() {
		n.S.MACMismatch.Inc()
		n.drop(p, "mac-mismatch")
		return
	}
	// CNPs are handled by a dedicated fast path in hardware, bypassing
	// the data pipeline.
	if p.IsCNP() {
		if q := n.qps[p.BTH.DestQP]; q != nil {
			n.deliver(p)
			q.HandlePacket(p)
		}
		n.k.PacketPool().Put(p)
		return
	}
	// Host (non-RoCE) traffic is steered to the kernel's own rings and
	// does not contend with the RDMA receive pipeline.
	if p.BTH == nil {
		if n.OnHostPacket != nil {
			n.OnHostPacket(p)
		}
		return
	}

	// Receive buffer admission.
	if n.rxBytes+size > n.cfg.RxBufBytes {
		n.S.RxOverflow.Inc()
		n.drop(p, "rx-overflow")
		return
	}
	n.rxBytes += size
	n.rxQueue.Push(p)
	if n.rxBytes >= n.cfg.RxXOFF || n.malfunction {
		n.pauseAll()
	}
	n.startPipeline()
}

// startPipeline begins processing the head of the receive queue.
func (n *NIC) startPipeline() {
	if n.busy || n.malfunction || n.rxQueue.Len() == 0 {
		return
	}
	n.busy = true
	p := *n.rxQueue.Front()
	d := n.cfg.ProcTime + n.rxSlowdown
	if n.mtt != nil && p.BTH != nil && p.PayloadLen > 0 {
		// Each payload lands at an address within the registered
		// region; a translation miss stalls the pipeline.
		va := n.rng.Int63n(n.cfg.MTT.RegionBytes)
		if !n.mtt.Lookup(va) {
			d += n.cfg.MissPenalty
			n.S.MTTMisses.Inc()
			n.S.PipelineStalls.Inc()
		}
	}
	n.k.After(d, n.pipeDone)
}

// finishPipeline completes one receive-pipeline traversal (the resident
// callback armed by startPipeline).
func (n *NIC) finishPipeline() {
	n.busy = false
	if n.malfunction {
		return // pipeline died mid-packet
	}
	if n.rxQueue.Len() == 0 {
		return
	}
	q := n.rxQueue.Pop()
	n.rxBytes -= q.WireLen()
	n.lastProc = n.k.Now()
	if n.rxBytes <= n.cfg.RxXON {
		n.resumeAll()
	}
	n.dispatch(q)
	n.startPipeline()
}

// dispatch hands a processed packet to its QP.
func (n *NIC) dispatch(p *packet.Packet) {
	if p.BTH == nil {
		return // non-RoCE traffic is the host stack's problem, not ours
	}
	q := n.qps[p.BTH.DestQP]
	if q == nil {
		n.S.UnknownQP.Inc()
		n.drop(p, "unknown-qp")
		return
	}
	n.deliver(p)
	q.HandlePacket(p)
	n.k.PacketPool().Put(p) // the QP consumed it; end of the line
}

// deliver emits the delivery lifecycle event: the frame survived the
// fabric and reached its queue pair.
func (n *NIC) deliver(p *packet.Packet) {
	if n.trace.Wants(telemetry.EvDeliver.Mask()) {
		n.trace.Emit(telemetry.Event{
			Type: telemetry.EvDeliver, Node: n.cfg.Name, Port: 0,
			Pri: p.Priority(nil), Pkt: p,
		})
	}
}

// drop emits a drop lifecycle event for a frame discarded by the NIC and
// recycles it (every call site is a death point).
func (n *NIC) drop(p *packet.Packet, reason string) {
	if n.trace.Wants(telemetry.EvDrop.Mask()) {
		n.trace.Emit(telemetry.Event{
			Type: telemetry.EvDrop, Node: n.cfg.Name, Port: 0,
			Pri: p.Priority(nil), Pkt: p, Reason: reason,
		})
	}
	n.k.PacketPool().Put(p)
}

// pollWatchdog is the micro-controller: if the receive pipeline has been
// stopped for the window while the NIC generates pause frames, disable
// pause generation permanently (the paper: the NIC never comes back; the
// server gets repaired out of band).
func (n *NIC) pollWatchdog() {
	now := n.k.Now()
	// "Stopped" means no packet has completed the pipeline since the
	// last poll while there is work (or the pipeline is dead); the
	// Watchdog itself enforces the 100 ms persistence window.
	stopped := (n.malfunction || n.rxQueue.Len() > 0) && now.Sub(n.lastProc) >= n.cfg.Watchdog.Poll
	pausing := n.pauser.Engaged() != 0 && !n.pauser.Disabled
	if n.wd.Observe(now, stopped && pausing) {
		n.S.WatchdogTrips.Inc()
		n.pauser.Disabled = true
		// Pause generation is cut off: the peer's pause expires by quanta
		// with no explicit XON frame, so close the trace-level pause
		// intervals here — otherwise the propagation analyzer would see
		// the contained storm as pausing forever. The generator's engaged
		// bits are cleared with the intervals (Resume while Disabled
		// sends nothing): a latched bit would make a later resumeAll —
		// the rx buffer draining post-repair — emit an orphan XON edge
		// for an interval already closed.
		for pri := 0; pri < 8; pri++ {
			if n.pauser.Engaged()&(1<<uint(pri)) == 0 {
				continue
			}
			if n.trace.Wants(telemetry.EvPauseXON.Mask()) {
				n.trace.Emit(telemetry.Event{
					Type: telemetry.EvPauseXON, Node: n.cfg.Name, Port: 0, Pri: pri,
					Reason: "watchdog-disabled",
				})
			}
			n.pauser.Resume(pri)
		}
	}
}
