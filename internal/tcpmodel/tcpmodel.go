// Package tcpmodel implements the simplified kernel TCP stack the paper
// compares RDMA against: NewReno-style congestion control with fast
// retransmit and RTO recovery, a kernel-latency model injected at send
// and delivery (the paper attributes TCP's 99th-percentile tail to
// kernel overhead plus incast drops), and CPU cost accounting calibrated
// to the paper's measurements (sending at 40 Gb/s ≈ 6% and receiving
// ≈ 12% of a 32-core server).
//
// TCP traffic rides a lossy priority class through the same simulated
// fabric as RDMA, so Figure 8's isolation claim (RDMA congestion leaves
// TCP's tail unchanged) is reproduced structurally.
package tcpmodel

import (
	"fmt"
	"math"
	"math/rand"

	"rocesim/internal/nic"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
)

// KernelDelayModel samples the time a message spends in the OS stack on
// one side (socket calls, soft interrupts, scheduling). The default is a
// lognormal body with rare multi-millisecond spikes, matching the shape
// of the paper's Pingmesh observations.
type KernelDelayModel struct {
	// MedianUS is the median one-way kernel delay in microseconds.
	MedianUS float64
	// Sigma is the lognormal shape parameter.
	Sigma float64
	// SpikeProb is the probability of an extra scheduling spike.
	SpikeProb float64
	// SpikeMeanUS is the mean of the (exponential) spike.
	SpikeMeanUS float64
}

// DefaultKernelDelay returns the calibration used for Figure 6.
func DefaultKernelDelay() KernelDelayModel {
	return KernelDelayModel{MedianUS: 25, Sigma: 0.8, SpikeProb: 0.004, SpikeMeanUS: 1500}
}

// Sample draws one delay.
func (m KernelDelayModel) Sample(rng *rand.Rand) simtime.Duration {
	us := m.MedianUS * math.Exp(m.Sigma*rng.NormFloat64())
	if rng.Float64() < m.SpikeProb {
		us += rng.ExpFloat64() * m.SpikeMeanUS
	}
	return simtime.Duration(us * float64(simtime.Microsecond))
}

// seg is the TCP segment state carried opaquely through the fabric.
type seg struct {
	flow   packet.FlowKey
	seq    int64
	length int
	ackNo  int64
	isAck  bool
}

// ConnConfig tunes a connection.
type ConnConfig struct {
	MSS        int
	InitCwnd   float64
	RTOMin     simtime.Duration
	Priority   int // lossy class (the paper reserves a non-lossless class for TCP)
	DupThresh  int
	MaxCwndPkt float64
}

// DefaultConnConfig returns data-center TCP settings (RTOmin 10 ms, the
// tuned value DC operators use; stock stacks are far worse).
func DefaultConnConfig() ConnConfig {
	return ConnConfig{
		MSS:        1460,
		InitCwnd:   10,
		RTOMin:     10 * simtime.Millisecond,
		Priority:   1,
		DupThresh:  3,
		MaxCwndPkt: 512,
	}
}

// Stats counts per-connection events.
type Stats struct {
	BytesSent      uint64
	BytesDelivered uint64
	SegsSent       uint64
	SegsRetx       uint64
	FastRetx       uint64
	RTOs           uint64
	MsgsSent       uint64
	MsgsDelivered  uint64
}

// message tracks one application message for latency measurement.
type message struct {
	endOff int64 // stream offset one past the message's last byte
	posted simtime.Time
	onDone func(posted, delivered simtime.Time)
}

// Conn is one pre-established TCP connection (handshake elided). Data
// flows from the initiating side to the peer; ACKs flow back.
type Conn struct {
	k    *sim.Kernel
	cfg  ConnConfig
	rng  *rand.Rand
	kd   KernelDelayModel
	send func(*packet.Packet)

	flow packet.FlowKey
	gw   packet.MAC // first-hop router MAC
	peer *Conn      // receiving endpoint

	// Sender state (byte offsets).
	sndUna, sndNxt, appEnd int64
	cwnd, ssthresh         float64
	dupAcks                int
	rto                    *sim.Timer
	rtoBackoff             int
	msgs                   []*message

	// Receiver state.
	rcvNxt int64
	ooo    map[int64]int // seq -> len of buffered out-of-order segments
	rMsgs  []*message    // mirror of sender's message boundaries

	S Stats
}

// Stack binds TCP connections to a NIC and routes received segments.
type Stack struct {
	k     *sim.Kernel
	n     *nic.NIC
	rng   *rand.Rand
	kd    KernelDelayModel
	conns map[packet.FlowKey]*Conn

	// CPU accounting (see CPUModel).
	BytesSent uint64
	BytesRecv uint64
	SegsSent  uint64
	SegsRecv  uint64
}

// NewStack attaches a TCP stack to a NIC. It takes over the NIC's host
// packet path.
func NewStack(k *sim.Kernel, n *nic.NIC, kd KernelDelayModel) *Stack {
	s := &Stack{k: k, n: n, rng: k.Rand("tcp/" + n.Name()), kd: kd, conns: make(map[packet.FlowKey]*Conn)}
	n.OnHostPacket = s.receive
	return s
}

// NIC returns the underlying NIC.
func (s *Stack) NIC() *nic.NIC { return s.n }

// Dial creates a one-directional data connection from s to dst through
// the fabric; gwSrc/gwDst are the first-hop router MACs at each end.
// Both endpoints are wired immediately (the handshake is elided; the
// paper's connections are long-lived).
func (s *Stack) Dial(dst *Stack, srcPort, dstPort uint16, gwSrc, gwDst packet.MAC, cfg ConnConfig) *Conn {
	fk := packet.FlowKey{
		Src: s.n.IP(), Dst: dst.n.IP(), Proto: packet.ProtoTCP,
		SrcPort: srcPort, DstPort: dstPort,
	}
	if _, dup := s.conns[fk]; dup {
		panic(fmt.Sprintf("tcpmodel: duplicate flow %+v", fk))
	}
	snd := &Conn{
		k: s.k, cfg: cfg, rng: s.rng, kd: s.kd, flow: fk,
		cwnd: cfg.InitCwnd, ssthresh: 1e18, // slow start until the first loss
		ooo: make(map[int64]int),
	}
	snd.send = func(p *packet.Packet) {
		s.BytesSent += uint64(p.PayloadLen)
		s.SegsSent++
		s.n.SendHostPacket(p, cfg.Priority)
	}
	rcv := &Conn{
		k: s.k, cfg: cfg, rng: dst.rng, kd: dst.kd, flow: fk.Reverse(),
		ooo: make(map[int64]int),
	}
	rcv.send = func(p *packet.Packet) {
		dst.SegsSent++
		dst.n.SendHostPacket(p, cfg.Priority)
	}
	snd.peer = rcv
	rcv.peer = snd
	snd.rto = s.k.NewTimer(snd.onRTO)
	rcv.rto = s.k.NewTimer(rcv.onRTO)
	// Both stacks index by the data-direction flow: data segments and
	// their ACKs carry it alike.
	s.conns[fk] = snd
	dst.conns[fk] = rcv
	snd.gw = gwSrc
	rcv.gw = gwDst
	return snd
}

// receive routes an arriving TCP packet.
func (s *Stack) receive(p *packet.Packet) {
	sg, ok := p.TCPSeg.(*seg)
	if !ok {
		return
	}
	s.BytesRecv += uint64(p.PayloadLen)
	s.SegsRecv++
	if sg.isAck {
		// ACKs arrive at the data sender: flow key of the data
		// direction.
		if c := s.conns[sg.flow]; c != nil {
			c.handleAck(sg)
		}
		return
	}
	if c := s.conns[sg.flow]; c != nil {
		c.handleData(sg)
	}
}

// Send posts an application message on the connection. onDone fires at
// the receiver when the last byte has been delivered to the application
// (after receiver kernel delay).
func (c *Conn) Send(size int, onDone func(posted, delivered simtime.Time)) {
	if size <= 0 {
		panic("tcpmodel: non-positive message")
	}
	posted := c.k.Now()
	// Sender-side kernel delay before the bytes reach the send buffer.
	d := c.kd.Sample(c.rng)
	c.k.After(d, func() {
		c.appEnd += int64(size)
		m := &message{endOff: c.appEnd, posted: posted, onDone: onDone}
		c.msgs = append(c.msgs, m)
		c.peer.rMsgs = append(c.peer.rMsgs, m)
		c.S.MsgsSent++
		c.pump()
	})
}

// pump transmits while the window allows.
func (c *Conn) pump() {
	wnd := int64(c.cwnd * float64(c.cfg.MSS))
	for c.sndNxt < c.appEnd && c.sndNxt-c.sndUna < wnd {
		n := int(c.appEnd - c.sndNxt)
		if n > c.cfg.MSS {
			n = c.cfg.MSS
		}
		c.transmit(c.sndNxt, n)
		c.sndNxt += int64(n)
	}
	if c.sndUna < c.sndNxt {
		c.armRTO()
	}
}

func (c *Conn) transmit(seqOff int64, n int) {
	sg := &seg{flow: c.flow, seq: seqOff, length: n}
	p := &packet.Packet{
		Eth: packet.Ethernet{Dst: c.gw, Src: packet.MAC{}, EtherType: packet.EtherTypeIPv4},
		IP: &packet.IPv4{
			DSCP: uint8(c.cfg.Priority), TTL: 64, Protocol: packet.ProtoTCP,
			Src: c.flow.Src, Dst: c.flow.Dst,
		},
		TCPHdrLen:  20,
		PayloadLen: n,
		TCPSeg:     sg,
	}
	c.send(p)
	c.S.SegsSent++
	c.S.BytesSent += uint64(n)
}

// handleData runs at the receiving endpoint.
func (c *Conn) handleData(sg *seg) {
	if sg.seq == c.rcvNxt {
		c.rcvNxt += int64(sg.length)
		// Absorb any buffered continuation.
		for {
			l, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.rcvNxt += int64(l)
		}
		c.deliver()
	} else if sg.seq > c.rcvNxt {
		c.ooo[sg.seq] = sg.length
	}
	// Cumulative ACK (every segment; delayed acks elided).
	ack := &seg{flow: sg.flow, ackNo: c.rcvNxt, isAck: true}
	p := &packet.Packet{
		Eth: packet.Ethernet{Dst: c.gw, EtherType: packet.EtherTypeIPv4},
		IP: &packet.IPv4{
			DSCP: uint8(c.cfg.Priority), TTL: 64, Protocol: packet.ProtoTCP,
			Src: c.flow.Src, Dst: c.flow.Dst,
		},
		TCPHdrLen: 20,
		TCPSeg:    ack,
	}
	c.send(p)
}

// deliver completes messages whose bytes are all in order, applying
// receiver-side kernel delay.
func (c *Conn) deliver() {
	for len(c.rMsgs) > 0 && c.rMsgs[0].endOff <= c.rcvNxt {
		m := c.rMsgs[0]
		c.rMsgs = c.rMsgs[1:]
		c.S.MsgsDelivered++
		c.S.BytesDelivered += uint64(m.endOff)
		d := c.kd.Sample(c.rng)
		c.k.After(d, func() {
			if m.onDone != nil {
				m.onDone(m.posted, c.k.Now())
			}
		})
	}
}

// handleAck runs at the data sender.
func (c *Conn) handleAck(sg *seg) {
	switch {
	case sg.ackNo > c.sndUna:
		acked := float64(sg.ackNo-c.sndUna) / float64(c.cfg.MSS)
		c.sndUna = sg.ackNo
		c.dupAcks = 0
		c.rtoBackoff = 0
		if c.cwnd < c.ssthresh {
			c.cwnd += acked // slow start
		} else {
			c.cwnd += acked / c.cwnd // congestion avoidance
		}
		if c.cwnd > c.cfg.MaxCwndPkt {
			c.cwnd = c.cfg.MaxCwndPkt
		}
		if c.sndUna == c.sndNxt {
			c.rto.Stop()
		} else if c.sndUna < c.sndNxt {
			c.armRTO()
		}
	case sg.ackNo == c.sndUna && c.sndNxt > c.sndUna:
		c.dupAcks++
		if c.dupAcks == c.cfg.DupThresh {
			// Fast retransmit.
			c.S.FastRetx++
			c.S.SegsRetx++
			c.ssthresh = math.Max(c.cwnd/2, 2)
			c.cwnd = c.ssthresh + float64(c.cfg.DupThresh)
			n := int(math.Min(float64(c.cfg.MSS), float64(c.sndNxt-c.sndUna)))
			c.transmit(c.sndUna, n)
			c.armRTO()
		}
	}
	c.pump()
}

// armRTO (re)arms the retransmission timer.
func (c *Conn) armRTO() {
	c.rto.Reset(c.cfg.RTOMin << uint(c.rtoBackoff))
}

func (c *Conn) onRTO() {
	if c.sndUna >= c.sndNxt {
		return
	}
	c.S.RTOs++
	c.S.SegsRetx++
	c.ssthresh = math.Max(c.cwnd/2, 2)
	c.cwnd = c.cfg.InitCwnd
	if c.rtoBackoff < 6 {
		c.rtoBackoff++
	}
	// Go back to the unacked point.
	c.sndNxt = c.sndUna
	c.pump()
}

// Cwnd exposes the congestion window for tests.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// CPUModel converts stack byte/segment counts into core utilization,
// calibrated to the paper's Section 1 measurements on a 32-core Xeon
// E5-2690: 40 Gb/s over 8 connections costs ~6% aggregate CPU to send
// and ~12% to receive.
type CPUModel struct {
	Cores int
	// CyclesPerByteTx/Rx and per-segment costs, in core-nanoseconds.
	NSPerByteTx float64
	NSPerByteRx float64
	NSPerSegTx  float64
	NSPerSegRx  float64
}

// DefaultCPUModel returns the calibration for the paper's reference
// server. Derivation: 40 Gb/s = 5 GB/s. Send at 6% of 32 cores = 1.92
// core-seconds/s => 1.92/5e9 = 0.384 ns/byte. Receive at 12% => 0.768
// ns/byte. Per-segment costs are folded into the per-byte figures.
func DefaultCPUModel() CPUModel {
	return CPUModel{Cores: 32, NSPerByteTx: 0.384, NSPerByteRx: 0.768}
}

// Utilization returns the aggregate CPU fraction consumed by the given
// stack activity over a wall-clock window.
func (m CPUModel) Utilization(s *Stack, window simtime.Duration) float64 {
	ns := float64(s.BytesSent)*m.NSPerByteTx + float64(s.BytesRecv)*m.NSPerByteRx +
		float64(s.SegsSent)*m.NSPerSegTx + float64(s.SegsRecv)*m.NSPerSegRx
	total := float64(m.Cores) * float64(window) / float64(simtime.Nanosecond)
	if total <= 0 {
		return 0
	}
	return ns / total
}

// RDMAUtilization is the CPU cost of RDMA data transfer: effectively
// zero (the NIC moves the bytes; the paper measured "close to 0%").
func (m CPUModel) RDMAUtilization() float64 { return 0 }
