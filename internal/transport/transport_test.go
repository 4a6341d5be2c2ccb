package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rocesim/internal/dcqcn"
	"rocesim/internal/irn"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
)

// stubEP is a transport.Endpoint over a bare kernel.
type stubEP struct {
	k     *sim.Kernel
	kicks int
	ipid  uint16
}

func (e *stubEP) Now() simtime.Time             { return e.k.Now() }
func (e *stubEP) NewTimer(fn func()) *sim.Timer { return e.k.NewTimer(fn) }
func (e *stubEP) Kick()                         { e.kicks++ }
func (e *stubEP) Rand() *rand.Rand              { return e.k.Rand("stub") }
func (e *stubEP) NextIPID() uint16              { e.ipid++; return e.ipid }

func newPair(k *sim.Kernel) (*QP, *QP, *stubEP, *stubEP) {
	return newPairRec(k, GoBack0)
}

// newPairRec builds a connected pair running the given recovery
// strategy (selected at construction, like the NIC does).
func newPairRec(k *sim.Kernel, rec Recovery) (*QP, *QP, *stubEP, *stubEP) {
	ea, eb := &stubEP{k: k}, &stubEP{k: k}
	cfgA := Config{QPN: 1, PeerQPN: 2, Priority: 3, MTU: 1024, SrcPort: 700, Recovery: rec}
	cfgB := Config{QPN: 2, PeerQPN: 1, Priority: 3, MTU: 1024, SrcPort: 701, Recovery: rec}
	return New(ea, cfgA), New(eb, cfgB), ea, eb
}

// shuttle drains packets from one QP into the other until both idle.
// drop, when non-nil, discards matching packets in flight.
func shuttle(k *sim.Kernel, a, b *QP, drop func(*packet.Packet) bool) {
	for i := 0; i < 1_000_000; i++ {
		moved := false
		now := k.Now()
		if !a.NextReady(now).After(now) {
			if p := a.Pop(now); p != nil {
				moved = true
				if drop == nil || !drop(p) {
					b.HandlePacket(p)
				}
			}
		}
		now = k.Now()
		if !b.NextReady(now).After(now) {
			if p := b.Pop(now); p != nil {
				moved = true
				if drop == nil || !drop(p) {
					a.HandlePacket(p)
				}
			}
		}
		if !moved {
			if !k.Step() {
				return
			}
		}
	}
}

func TestPSNArithmetic(t *testing.T) {
	if irn.Add(packet.PSNMask, 1) != 0 {
		t.Fatal("wrap")
	}
	if irn.Diff(0, packet.PSNMask) != 1 {
		t.Fatal("wrapped diff")
	}
	if irn.Diff(packet.PSNMask, 0) != -1 {
		t.Fatal("reverse wrapped diff")
	}
	if irn.Diff(100, 50) != 50 {
		t.Fatal("plain diff")
	}
}

func TestPSNDiffAntisymmetric(t *testing.T) {
	f := func(a, b uint32) bool {
		a &= packet.PSNMask
		b &= packet.PSNMask
		d1, d2 := irn.Diff(a, b), irn.Diff(b, a)
		if d1 == -(1<<23) || d2 == -(1<<23) {
			return true // the ambiguous midpoint maps to itself
		}
		return d1 == -d2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendSegmentation(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _, _ := newPair(k)
	var sizes []int
	b.OnMessage = func(_ OpKind, sz int) { sizes = append(sizes, sz) }
	done := 0
	a.Post(OpSend, 2500, func(_, _ simtime.Time) { done++ }) // 3 packets: 1024+1024+452
	a.Post(OpSend, 100, func(_, _ simtime.Time) { done++ })  // SendOnly
	shuttle(k, a, b, nil)
	if done != 2 {
		t.Fatalf("completed %d", done)
	}
	if len(sizes) != 2 || sizes[0] != 2500 || sizes[1] != 100 {
		t.Fatalf("delivered %v", sizes)
	}
	if a.S.PacketsSent != 4 {
		t.Fatalf("sent %d packets, want 4", a.S.PacketsSent)
	}
}

func TestOpcodeSequence(t *testing.T) {
	k := sim.NewKernel(1)
	a, _, _, _ := newPair(k)
	a.Post(OpSend, 3*1024, nil)
	var ops []packet.Opcode
	for {
		p := a.Pop(k.Now())
		if p == nil {
			break
		}
		ops = append(ops, p.BTH.Opcode)
	}
	want := []packet.Opcode{packet.OpSendFirst, packet.OpSendMiddle, packet.OpSendLast}
	if len(ops) != 3 {
		t.Fatalf("ops %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops %v, want %v", ops, want)
		}
	}
}

func TestWriteCarriesRETH(t *testing.T) {
	k := sim.NewKernel(1)
	a, _, _, _ := newPair(k)
	a.Post(OpWrite, 2048, nil)
	p := a.Pop(k.Now())
	if p.BTH.Opcode != packet.OpWriteFirst || p.RETH == nil || p.RETH.DMALen != 2048 {
		t.Fatalf("first write packet: %v reth=%+v", p.BTH.Opcode, p.RETH)
	}
	p2 := a.Pop(k.Now())
	if p2.BTH.Opcode != packet.OpWriteLast || p2.RETH != nil {
		t.Fatalf("second write packet: %v", p2.BTH.Opcode)
	}
}

func TestReadRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _, _ := newPair(k)
	done := false
	a.Post(OpRead, 5000, func(_, _ simtime.Time) { done = true })
	shuttle(k, a, b, nil)
	if !done {
		t.Fatal("read incomplete")
	}
	if a.S.BytesDelivered != 5120 { // 5 full-MTU response packets
		t.Fatalf("delivered %d", a.S.BytesDelivered)
	}
}

func TestGoBackNSingleLoss(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _, _ := newPairRec(k, GoBackN)
	done := false
	a.Post(OpSend, 10*1024, func(_, _ simtime.Time) { done = true })
	dropped := false
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if !dropped && p.BTH != nil && p.BTH.PSN == 4 && p.BTH.Opcode.IsRequest() {
			dropped = true
			return true
		}
		return false
	})
	if !done {
		t.Fatal("message incomplete after single loss")
	}
	if b.S.NaksSent == 0 || a.S.NaksReceived == 0 {
		t.Fatal("recovery should have used a NAK")
	}
	// Go-back-N resends PSNs 4..9: ≤ 6 retransmitted packets + the
	// in-flight tail; never the whole message.
	if a.S.PacketsSent > 10+8 {
		t.Fatalf("sent %d packets for a 10-packet message", a.S.PacketsSent)
	}
	if b.S.MessagesRecv != 1 || b.S.BytesDelivered != 10*1024 {
		t.Fatalf("responder state: %+v", b.S)
	}
}

func TestGoBack0RestartsWholeMessage(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _, _ := newPairRec(k, GoBack0)
	done := false
	a.Post(OpSend, 10*1024, func(_, _ simtime.Time) { done = true })
	dropped := false
	var firsts int
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if p.BTH != nil && p.BTH.Opcode == packet.OpSendFirst {
			firsts++
		}
		if !dropped && p.BTH != nil && p.BTH.PSN == 4 && p.BTH.Opcode.IsRequest() {
			dropped = true
			return true
		}
		return false
	})
	if !done {
		t.Fatal("message incomplete")
	}
	if firsts < 2 {
		t.Fatal("go-back-0 must restart from the FIRST packet")
	}
	// Restart resends the full 10 packets.
	if a.S.PacketsSent < 10+10-5 {
		t.Fatalf("sent only %d packets", a.S.PacketsSent)
	}
	if b.S.MessagesRecv != 1 || b.S.BytesDelivered < 10*1024 {
		t.Fatalf("responder: %+v", b.S)
	}
}

func TestLostAckRecoversByTimeout(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _, _ := newPairRec(k, GoBackN)
	done := false
	a.Post(OpSend, 1024, func(_, _ simtime.Time) { done = true })
	droppedAck := false
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if !droppedAck && p.BTH != nil && p.BTH.Opcode == packet.OpAcknowledge {
			droppedAck = true
			return true
		}
		return false
	})
	if !done {
		t.Fatal("lost ACK never recovered")
	}
	if a.S.Timeouts == 0 {
		t.Fatal("recovery should have been timeout-driven")
	}
}

func TestLostReadRequestRecovers(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _, _ := newPairRec(k, GoBackN)
	done := false
	a.Post(OpRead, 4096, func(_, _ simtime.Time) { done = true })
	dropped := false
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if !dropped && p.BTH != nil && p.BTH.Opcode == packet.OpReadRequest {
			dropped = true
			return true
		}
		return false
	})
	if !done {
		t.Fatal("read never completed after its request was lost")
	}
}

func TestLostReadResponseRecovers(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _, _ := newPairRec(k, GoBackN)
	done := false
	a.Post(OpRead, 8*1024, func(_, _ simtime.Time) { done = true })
	dropped := false
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if !dropped && p.BTH != nil && p.BTH.Opcode.IsReadResponse() && p.BTH.PSN == 3 {
			dropped = true
			return true
		}
		return false
	})
	if !done {
		t.Fatal("read never completed after a response was lost")
	}
	if a.S.BytesDelivered < 8*1024 {
		t.Fatalf("delivered %d", a.S.BytesDelivered)
	}
}

func TestDuplicateFromLostAckNotRedelivered(t *testing.T) {
	// When an ACK is lost and the sender retransmits, the responder
	// must not deliver the message twice.
	k := sim.NewKernel(1)
	a, b, _, _ := newPairRec(k, GoBackN)
	msgs := 0
	b.OnMessage = func(OpKind, int) { msgs++ }
	done := 0
	a.Post(OpSend, 1024, func(_, _ simtime.Time) { done++ })
	droppedAck := false
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if !droppedAck && p.BTH != nil && p.BTH.Opcode == packet.OpAcknowledge {
			droppedAck = true
			return true
		}
		return false
	})
	if done != 1 {
		t.Fatalf("completions %d", done)
	}
	if msgs != 1 {
		t.Fatalf("message delivered %d times", msgs)
	}
}

func TestAckCoalescing(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _, _ := newPair(k)
	a.cfg.AckEvery = 8
	done := false
	a.Post(OpSend, 32*1024, func(_, _ simtime.Time) { done = true }) // 32 packets
	shuttle(k, a, b, nil)
	if !done {
		t.Fatal("incomplete")
	}
	if b.S.AcksSent > 5 {
		t.Fatalf("acks %d with AckEvery=8 over 32 packets", b.S.AcksSent)
	}
}

func TestPendingAndCompletionOrder(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _, _ := newPair(k)
	var order []int
	a.Post(OpSend, 2048, func(_, _ simtime.Time) { order = append(order, 1) })
	a.Post(OpSend, 1024, func(_, _ simtime.Time) { order = append(order, 2) })
	if a.Pending() != 2 {
		t.Fatalf("pending %d", a.Pending())
	}
	shuttle(k, a, b, nil)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("completion order %v", order)
	}
	if a.Pending() != 0 {
		t.Fatal("ops not retired")
	}
}

func TestVLANTagging(t *testing.T) {
	k := sim.NewKernel(1)
	ep := &stubEP{k: k}
	q := New(ep, Config{
		QPN: 1, PeerQPN: 2, Priority: 5, MTU: 1024, SrcPort: 9,
		VLAN: &packet.VLANTag{VID: 991},
	})
	q.Post(OpSend, 100, nil)
	p := q.Pop(k.Now())
	if p.VLAN == nil || p.VLAN.VID != 991 || p.VLAN.PCP != 5 {
		t.Fatalf("VLAN tag %+v", p.VLAN)
	}
	if p.Priority(nil) != 5 {
		t.Fatal("priority must ride in PCP")
	}
}

func TestPostPanicsOnBadLength(t *testing.T) {
	k := sim.NewKernel(1)
	a, _, _, _ := newPair(k)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Post(OpSend, 0, nil)
}

// Property: random loss patterns never break exactly-once in-order
// delivery with go-back-N.
func TestGoBackNDeliveryProperty(t *testing.T) {
	f := func(seed int64, dropMask uint32) bool {
		k := sim.NewKernel(seed)
		a, b, _, _ := newPairRec(k, GoBackN)
		msgs, bytes := 0, 0
		b.OnMessage = func(_ OpKind, sz int) { msgs++; bytes += sz }
		done := 0
		for i := 0; i < 3; i++ {
			a.Post(OpSend, 5000, func(_, _ simtime.Time) { done++ })
		}
		r := rand.New(rand.NewSource(seed))
		shuttle(k, a, b, func(p *packet.Packet) bool {
			return r.Intn(100) < int(dropMask%10) // up to 9% loss
		})
		return done == 3 && msgs == 3 && bytes == 15000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPSNWraparound(t *testing.T) {
	// A transfer that crosses the 24-bit PSN wrap must complete
	// normally.
	k := sim.NewKernel(9)
	a, b, _, _ := newPair(k)
	start := uint32(packet.PSNMask - 5)
	a.nextPSN, a.sndNxt, a.sndUna = start, start, start
	b.ePSN = start
	done := 0
	msgs := 0
	b.OnMessage = func(OpKind, int) { msgs++ }
	a.Post(OpSend, 20*1024, func(_, _ simtime.Time) { done++ }) // 20 packets across the wrap
	shuttle(k, a, b, nil)
	if done != 1 || msgs != 1 {
		t.Fatalf("wrap transfer: done=%d msgs=%d", done, msgs)
	}
	if b.S.BytesDelivered != 20*1024 {
		t.Fatalf("delivered %d", b.S.BytesDelivered)
	}
}

func TestPSNWraparoundWithLoss(t *testing.T) {
	k := sim.NewKernel(10)
	a, b, _, _ := newPairRec(k, GoBackN)
	start := uint32(packet.PSNMask - 3)
	a.nextPSN, a.sndNxt, a.sndUna = start, start, start
	b.ePSN = start
	done := false
	a.Post(OpSend, 10*1024, func(_, _ simtime.Time) { done = true })
	dropped := false
	shuttle(k, a, b, func(p *packet.Packet) bool {
		// Drop the first packet AFTER the wrap (PSN 1).
		if !dropped && p.BTH != nil && p.BTH.Opcode.IsRequest() && p.BTH.PSN == 1 {
			dropped = true
			return true
		}
		return false
	})
	if !done {
		t.Fatal("recovery across the PSN wrap failed")
	}
	if b.S.BytesDelivered != 10*1024 {
		t.Fatalf("delivered %d", b.S.BytesDelivered)
	}
}

func TestPSNDoubleWrapRetransmit(t *testing.T) {
	// A long-lived go-back-N flow whose PSN space wraps twice, with a
	// post-wrap loss in each revolution. The fast-forward between
	// episodes (both sides jumped consistently to just short of the
	// boundary) stands in for the ~16M in-order packets of one full
	// revolution. Recovery must re-walk only the lost tail — a signed
	// irn.Diff misclassification at the boundary would either stall the
	// flow or account a ~2^24-packet retransmit.
	k := sim.NewKernel(12)
	a, b, _, _ := newPairRec(k, GoBackN)
	msgs := 0
	b.OnMessage = func(OpKind, int) { msgs++ }
	for wrap := 0; wrap < 2; wrap++ {
		start := uint32(packet.PSNMask - 3)
		a.nextPSN, a.sndNxt, a.sndUna = start, start, start
		b.ePSN = start
		done := false
		a.Post(OpSend, 10*1024, func(_, _ simtime.Time) { done = true })
		dropped := false
		shuttle(k, a, b, func(p *packet.Packet) bool {
			// Drop the third packet after the boundary (PSN 2).
			if !dropped && p.BTH != nil && p.BTH.Opcode.IsRequest() && p.BTH.PSN == 2 {
				dropped = true
				return true
			}
			return false
		})
		if !done {
			t.Fatalf("wrap episode %d: recovery across the boundary failed", wrap)
		}
		if want := irn.Add(start, 10); a.sndUna != want {
			t.Fatalf("wrap episode %d: sndUna=%d, want %d", wrap, a.sndUna, want)
		}
	}
	if msgs != 2 || b.S.BytesDelivered != 2*10*1024 {
		t.Fatalf("msgs=%d delivered=%d", msgs, b.S.BytesDelivered)
	}
	// Two single-loss episodes re-walk at most the 8-packet tails.
	if a.S.PacketsRetx > 20 {
		t.Fatalf("retransmitted %d packets across two wraps; boundary misclassified", a.S.PacketsRetx)
	}
}

// Regression: a reordered/duplicate NAK naming a PSN behind the
// cumulative ack point must be discarded. Before the fix the NAK path
// had no staleness guard (unlike the ACK path): go-back-N recovery
// rewound sndUna below acknowledged data and re-sent retired packets.
func TestStaleNakDoesNotRewindAckPoint(t *testing.T) {
	k := sim.NewKernel(13)
	a, b, _, _ := newPairRec(k, GoBackN)
	a.Post(OpSend, 8*1024, nil) // 8 packets, PSNs 0..7
	// Pump 6 packets by hand (AckEvery=1: each is acked immediately),
	// leaving the op in flight with sndUna = sndNxt = 6.
	for i := 0; i < 6; i++ {
		p := a.Pop(k.Now())
		if p == nil {
			t.Fatalf("packet %d: nothing to pop", i)
		}
		b.HandlePacket(p)
		for ack := b.Pop(k.Now()); ack != nil; ack = b.Pop(k.Now()) {
			a.HandlePacket(ack)
		}
	}
	if a.sndUna != 6 || a.sndNxt != 6 {
		t.Fatalf("setup: sndUna=%d sndNxt=%d, want 6/6", a.sndUna, a.sndNxt)
	}
	retx := a.S.PacketsRetx
	// A stale NAK from the already-recovered region (PSN 2).
	stale := &packet.Packet{}
	*stale.AttachBTH() = packet.BTH{Opcode: packet.OpAcknowledge, DestQP: 1, PSN: 2}
	*stale.AttachAETH() = packet.AETH{Syndrome: packet.AETHNak | packet.NakPSNSequenceError}
	a.HandlePacket(stale)
	if a.sndUna != 6 {
		t.Fatalf("stale NAK rewound sndUna to %d", a.sndUna)
	}
	if a.sndNxt != 6 {
		t.Fatalf("stale NAK rewound sndNxt to %d", a.sndNxt)
	}
	if a.S.PacketsRetx != retx {
		t.Fatalf("stale NAK accounted %d retransmits", a.S.PacketsRetx-retx)
	}
	if a.S.NaksReceived != 1 {
		t.Fatalf("the NAK frame itself must still be counted: %d", a.S.NaksReceived)
	}
}

// Regression: during go-back-0 recovery sndNxt legitimately trails
// sndUna (the sender re-walks duplicates). A timeout in that state fed
// the negative signed diff straight into the uint64 retransmit
// counters, underflowing them by ~2^64.
func TestGoBack0RetxCountClampedWhenSndNxtTrails(t *testing.T) {
	k := sim.NewKernel(14)
	a, _, _, _ := newPair(k) // zero-value Recovery is GoBack0
	a.Post(OpSend, 4*1024, nil)
	a.sndUna, a.sndNxt = 3, 1
	a.strat.onTimeout(a)
	if a.S.PacketsRetx > 1<<20 {
		t.Fatalf("retransmit counter underflowed: %d", a.S.PacketsRetx)
	}
}

func TestDCQCNPacingSlowsEmission(t *testing.T) {
	k := sim.NewKernel(11)
	ea := &stubEP{k: k}
	params := dcqcnDefaultsForTest()
	q := New(ea, Config{QPN: 1, PeerQPN: 2, Priority: 3, MTU: 1024, SrcPort: 1, DCQCN: &params})
	// Force a deep rate cut.
	q.Post(OpSend, 64*1024, nil)
	p := q.Pop(k.Now())
	if p == nil {
		t.Fatal("no first packet")
	}
	q.HandlePacket(mkCNP(2, 1))
	q.HandlePacket(mkCNP(2, 1))
	// The cut applies to packets paced AFTER the CNPs: emit one more,
	// then measure the spacing to the next. After two CNPs at alpha≈1,
	// rate ≈ line/4, so an 1110-byte frame paces at ≈888 ns.
	k.RunUntil(k.Now().Add(simtime.Microsecond))
	if p2 := q.Pop(k.Now()); p2 == nil {
		t.Fatal("no second packet")
	}
	now := k.Now()
	next := q.NextReady(now)
	if !next.After(now) {
		t.Fatal("pacer must delay the next packet after rate cuts")
	}
	gap := next.Sub(now)
	if gap < 500*simtime.Nanosecond || gap > 5*simtime.Microsecond {
		t.Fatalf("pacing gap %v out of expected band", gap)
	}
}

func mkCNP(dstQP uint32, srcQP uint32) *packet.Packet {
	return &packet.Packet{
		Eth:  packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		IP:   &packet.IPv4{Protocol: packet.ProtoUDP, TTL: 64},
		UDPH: &packet.UDP{SrcPort: 1, DstPort: packet.RoCEv2Port},
		BTH:  &packet.BTH{Opcode: packet.OpCNP, DestQP: dstQP},
	}
}

func dcqcnDefaultsForTest() dcqcn.Params {
	return dcqcn.DefaultParams(40 * simtime.Gbps)
}

func TestAckEveryWithLoss(t *testing.T) {
	// Coalesced ACKs + a drop: NAK recovery must still converge and
	// deliver exactly once.
	k := sim.NewKernel(12)
	a, b, _, _ := newPairRec(k, GoBackN)
	a.cfg.AckEvery = 16
	msgs := 0
	b.OnMessage = func(OpKind, int) { msgs++ }
	done := 0
	for i := 0; i < 3; i++ {
		a.Post(OpSend, 64*1024, func(_, _ simtime.Time) { done++ })
	}
	dropped := 0
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if dropped < 2 && p.BTH != nil && p.BTH.Opcode.IsRequest() && p.BTH.PSN%37 == 5 {
			dropped++
			return true
		}
		return false
	})
	if done != 3 || msgs != 3 {
		t.Fatalf("done=%d msgs=%d dropped=%d", done, msgs, dropped)
	}
}
