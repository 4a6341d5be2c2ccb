package link

import (
	"testing"
	"testing/quick"
	"unsafe"

	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
)

type sink struct {
	got   []*packet.Packet
	ports []int
	times []simtime.Time
	k     *sim.Kernel
}

func (s *sink) Receive(port int, p *packet.Packet) {
	s.got = append(s.got, p)
	s.ports = append(s.ports, port)
	if s.k != nil {
		s.times = append(s.times, s.k.Now())
	}
}

func dataPacket(pri int, payload int) *packet.Packet {
	return &packet.Packet{
		Eth:        packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		IP:         &packet.IPv4{DSCP: uint8(pri), Protocol: packet.ProtoUDP, TTL: 64},
		UDPH:       &packet.UDP{SrcPort: 1000, DstPort: packet.RoCEv2Port},
		BTH:        &packet.BTH{Opcode: packet.OpSendOnly},
		PayloadLen: payload,
	}
}

func TestLinkDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 10*simtime.Nanosecond)
	s := &sink{k: k}
	l.Attach(1, s, 7)
	e := NewEgress(k, l, 0)
	p := dataPacket(3, 1024)
	e.Enqueue(Item{P: p, Pri: 3})
	k.Run()
	if len(s.got) != 1 || s.got[0] != p {
		t.Fatalf("delivered %d", len(s.got))
	}
	if s.ports[0] != 7 {
		t.Fatalf("port %d", s.ports[0])
	}
	// Arrival = serialization (1086+20 bytes at 40G = 221.2ns) + 10ns prop.
	want := simtime.Time(221200*simtime.Picosecond + 10*simtime.Nanosecond)
	if s.times[0] != want {
		t.Fatalf("arrival %v, want %v", s.times[0], want)
	}
}

func TestEgressSerializesBackToBack(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	for i := 0; i < 3; i++ {
		e.Enqueue(Item{P: dataPacket(3, 1024), Pri: 3})
	}
	k.Run()
	if len(s.got) != 3 {
		t.Fatalf("delivered %d", len(s.got))
	}
	per := simtime.Duration(221200 * simtime.Picosecond)
	for i, at := range s.times {
		want := simtime.Time(per) * simtime.Time(i+1)
		if at != want {
			t.Fatalf("frame %d at %v, want %v", i, at, want)
		}
	}
	if e.TxFrames != 3 {
		t.Fatalf("TxFrames %d", e.TxFrames)
	}
}

func TestPFCGatesPriority(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	// Pause priority 3 for 1000 quanta = 12.8us.
	e.Pause.Handle(k.Now(), packet.NewPause(packet.MAC{}, 1<<3, 1000).Pause)
	e.Enqueue(Item{P: dataPacket(3, 1024), Pri: 3})
	e.Enqueue(Item{P: dataPacket(4, 1024), Pri: 4})
	k.Run()
	if len(s.got) != 2 {
		t.Fatalf("delivered %d", len(s.got))
	}
	// Priority 4 goes first despite being enqueued second.
	if s.got[0].IP.DSCP != 4 {
		t.Fatal("unpaused priority should transmit first")
	}
	// Priority 3 goes after pause expiry.
	if s.times[1] < simtime.Time(12800*simtime.Nanosecond) {
		t.Fatalf("paused frame left at %v, before pause expiry", s.times[1])
	}
}

func TestExplicitXONKick(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	e.Pause.Handle(0, packet.NewPause(packet.MAC{}, 1<<3, 0xffff).Pause)
	e.Enqueue(Item{P: dataPacket(3, 100), Pri: 3})
	k.After(5*simtime.Microsecond, func() {
		e.Pause.Handle(k.Now(), packet.NewPause(packet.MAC{}, 1<<3, 0).Pause)
		e.Kick()
	})
	k.Run()
	if len(s.got) != 1 {
		t.Fatal("XON+Kick must release the queue")
	}
	if s.times[0] < simtime.Time(5*simtime.Microsecond) {
		t.Fatal("released before XON")
	}
}

func TestControlBypassesPause(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	// Pause ALL priorities.
	e.Pause.Handle(0, packet.NewPause(packet.MAC{}, 0xff, 0xffff).Pause)
	e.Enqueue(Item{P: dataPacket(3, 100), Pri: 3})
	e.EnqueueControl(packet.NewPause(packet.MAC{0x02, 0, 0, 0, 0, 1}, 1<<3, 0xffff))
	k.RunUntil(simtime.Time(100 * simtime.Microsecond))
	if len(s.got) != 1 || !s.got[0].IsPause() {
		t.Fatalf("control frame must bypass pause; delivered %d", len(s.got))
	}
}

func TestControlPreemptsData(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	for i := 0; i < 5; i++ {
		e.Enqueue(Item{P: dataPacket(3, 1024), Pri: 3})
	}
	// Enqueue a pause frame while data is in flight: it must be the
	// next frame on the wire.
	k.After(100*simtime.Nanosecond, func() {
		e.EnqueueControl(packet.NewPause(packet.MAC{}, 1<<3, 100))
	})
	k.Run()
	if !s.got[1].IsPause() {
		t.Fatal("control frame must preempt queued data")
	}
}

func TestBlockedEgress(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	e.Blocked = true
	e.Enqueue(Item{P: dataPacket(3, 100), Pri: 3})
	k.Run()
	if len(s.got) != 0 {
		t.Fatal("blocked egress transmitted")
	}
	// Control still flows (a dead NIC's pause storm).
	e.EnqueueControl(packet.NewPause(packet.MAC{}, 1<<3, 0xffff))
	k.Run()
	if len(s.got) != 1 {
		t.Fatal("control must flow on blocked egress")
	}
}

func TestDWRRWeights(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	e.SetWeight(3, 3)
	e.SetWeight(4, 1)
	for i := 0; i < 300; i++ {
		e.Enqueue(Item{P: dataPacket(3, 1024), Pri: 3})
		e.Enqueue(Item{P: dataPacket(4, 1024), Pri: 4})
	}
	// Run long enough to drain roughly half the backlog.
	k.RunUntil(simtime.Time(40 * simtime.Microsecond))
	var got3, got4 int
	for _, p := range s.got {
		if p.IP.DSCP == 3 {
			got3++
		} else {
			got4++
		}
	}
	ratio := float64(got3) / float64(got4)
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("weight-3 class got %d, weight-1 got %d (ratio %.2f, want ~3)", got3, got4, ratio)
	}
}

func TestDWRRFairnessEqualWeights(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	for i := 0; i < 200; i++ {
		e.Enqueue(Item{P: dataPacket(1, 1024), Pri: 1})
		e.Enqueue(Item{P: dataPacket(6, 1024), Pri: 6})
	}
	k.RunUntil(simtime.Time(20 * simtime.Microsecond))
	var g1, g6 int
	for _, p := range s.got {
		if p.IP.DSCP == 1 {
			g1++
		} else {
			g6++
		}
	}
	if g1 == 0 || g6 == 0 {
		t.Fatal("starvation under equal weights")
	}
	diff := g1 - g6
	if diff < -2 || diff > 2 {
		t.Fatalf("unfair: %d vs %d", g1, g6)
	}
}

func TestLinkDown(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	l.Down = true
	e.Enqueue(Item{P: dataPacket(3, 100), Pri: 3})
	k.Run()
	if len(s.got) != 0 {
		t.Fatal("down link delivered")
	}
	// The egress still drains (frames are lost on the wire).
	if e.TxFrames != 1 {
		t.Fatal("egress should have transmitted into the void")
	}
}

func TestQueueAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	e.Pause.Handle(0, packet.NewPause(packet.MAC{}, 1<<3, 0xffff).Pause)
	p := dataPacket(3, 1024)
	e.Enqueue(Item{P: p, Pri: 3})
	e.Enqueue(Item{P: dataPacket(3, 1024), Pri: 3})
	if e.QueueLen(3) != 2 {
		t.Fatalf("QueueLen %d", e.QueueLen(3))
	}
	if e.QueueBytes(3) != 2*p.WireLen() {
		t.Fatalf("QueueBytes %d", e.QueueBytes(3))
	}
	// Priority 4 is not paused: its first frame goes straight onto the
	// wire and leaves the total, the second waits behind it.
	small := dataPacket(4, 100).WireLen()
	e.Enqueue(Item{P: dataPacket(4, 100), Pri: 4})
	e.Enqueue(Item{P: dataPacket(4, 100), Pri: 4})
	if e.TotalQueued() != 2*p.WireLen()+small {
		t.Fatalf("TotalQueued %d, want %d", e.TotalQueued(), 2*p.WireLen()+small)
	}
	purged := e.Purge(3)
	if len(purged) != 2 || purged[0].P != p || e.QueueLen(3) != 0 || e.QueueBytes(3) != 0 {
		t.Fatalf("Purge returned %d items, left %d frames and %d bytes", len(purged), e.QueueLen(3), e.QueueBytes(3))
	}
	if e.TotalQueued() != small {
		t.Fatalf("TotalQueued %d after the purge, want %d", e.TotalQueued(), small)
	}
	k.Run()
	if e.TotalQueued() != 0 || e.QueueLen(4) != 0 {
		t.Fatalf("TotalQueued %d, %d frames at priority 4 after the drain", e.TotalQueued(), e.QueueLen(4))
	}
}

func TestOnTransmitCallback(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	e := NewEgress(k, l, 0)
	var released []Item
	e.OnTransmit = func(it Item) { released = append(released, it) }
	e.Enqueue(Item{P: dataPacket(3, 100), Pri: 3, IngressPort: 9})
	k.Run()
	if len(released) != 1 || released[0].IngressPort != 9 || released[0].Pri != 3 {
		t.Fatalf("OnTransmit items: %+v", released)
	}
}

func TestInvalidPriorityPanics(t *testing.T) {
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, 0)
	l.Attach(1, &sink{}, 0)
	e := NewEgress(k, l, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Enqueue(Item{P: dataPacket(3, 100), Pri: 9})
}

func TestLinkTapSeesBothDirections(t *testing.T) {
	k := sim.NewKernel(9)
	l := New(k, 40*simtime.Gbps, 0)
	a, b := &sink{k: k}, &sink{k: k}
	l.Attach(0, a, 0)
	l.Attach(1, b, 0)
	var tapped []*packet.Packet
	l.Tap = func(p *packet.Packet) { tapped = append(tapped, p) }
	e0 := NewEgress(k, l, 0)
	e1 := NewEgress(k, l, 1)
	e0.Enqueue(Item{P: dataPacket(3, 100), Pri: 3})
	e1.Enqueue(Item{P: dataPacket(4, 100), Pri: 4})
	k.Run()
	if len(tapped) != 2 {
		t.Fatalf("tap saw %d frames", len(tapped))
	}
	// Tap fires even when the link is down (the frame hit the wire).
	l.Down = true
	e0.Enqueue(Item{P: dataPacket(3, 100), Pri: 3})
	k.Run()
	if len(tapped) != 3 {
		t.Fatal("tap must observe frames lost to a down link")
	}
}

// Property: everything enqueued is eventually delivered exactly once, in
// per-priority FIFO order, for arbitrary priority interleavings.
func TestEgressConservationProperty(t *testing.T) {
	f := func(pris []uint8) bool {
		k := sim.NewKernel(3)
		l := New(k, 40*simtime.Gbps, 0)
		s := &sink{k: k}
		l.Attach(1, s, 0)
		e := NewEgress(k, l, 0)
		want := map[int][]uint64{}
		for i, pr := range pris {
			pri := int(pr % 8)
			p := dataPacket(pri, 100)
			p.UID = uint64(i + 1)
			e.Enqueue(Item{P: p, Pri: int8(pri)})
			want[pri] = append(want[pri], p.UID)
		}
		k.Run()
		if len(s.got) != len(pris) {
			return false
		}
		got := map[int][]uint64{}
		for _, p := range s.got {
			pri := int(p.IP.DSCP)
			got[pri] = append(got[pri], p.UID)
		}
		for pri, uids := range want {
			if len(got[pri]) != len(uids) {
				return false
			}
			for i := range uids {
				if got[pri][i] != uids[i] {
					return false // per-priority order violated
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFCSErrorInjection(t *testing.T) {
	k := sim.NewKernel(4)
	l := New(k, 40*simtime.Gbps, 0)
	s := &sink{k: k}
	l.Attach(1, s, 0)
	l.FCSErrorRate = 0.25
	e := NewEgress(k, l, 0)
	const n = 4000
	for i := 0; i < n; i++ {
		e.Enqueue(Item{P: dataPacket(3, 100), Pri: 3})
	}
	k.Run()
	lost := int(l.FCSErrors)
	if lost+len(s.got) != n {
		t.Fatalf("conservation: %d lost + %d delivered != %d", lost, len(s.got), n)
	}
	frac := float64(lost) / n
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("loss fraction %.3f, want ~0.25", frac)
	}
}

// TestItemSize pins a queued frame's record at 16 bytes: it is copied on
// every enqueue, dequeue and transmit, and a deep switch buffer holds
// hundreds of thousands of them. A ring's header stays at 32 bytes, so
// the nine queues of an egress's queue block cost what they did.
func TestItemSize(t *testing.T) {
	if n := unsafe.Sizeof(Item{}); n != 16 {
		t.Fatalf("Item is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(Ring[Item]{}); n != 32 {
		t.Fatalf("Ring header is %d bytes, want 32", n)
	}
}

// TestIdleEgress pins the footprint of an egress that never sends: the
// queues and DWRR state stay unallocated, and kicking it schedules
// nothing. The first Enqueue, EnqueueControl or SetWeight allocates
// them.
func TestIdleEgress(t *testing.T) {
	if n := unsafe.Sizeof(Egress{}); n > 256 {
		t.Fatalf("Egress is %d bytes, want <= 256", n)
	}
	k := sim.NewKernel(1)
	l := New(k, 40*simtime.Gbps, simtime.Microsecond)
	l.Attach(1, &sink{}, 0)
	e := NewEgress(k, l, 0)
	e.Kick()
	if e.q != nil || k.Pending() != 0 {
		t.Fatalf("idle kick: queue block %v, %d events pending", e.q != nil, k.Pending())
	}
	if e.QueueLen(3) != 0 || e.QueueBytes(3) != 0 || e.TotalQueued() != 0 || e.Purge(3) != nil || e.q != nil {
		t.Fatal("idle egress accessors must answer without allocating the queue block")
	}
	for name, first := range map[string]func(e *Egress){
		"Enqueue":        func(e *Egress) { e.Enqueue(Item{P: dataPacket(3, 100), Pri: 3}) },
		"EnqueueControl": func(e *Egress) { e.EnqueueControl(dataPacket(0, 46)) },
		"SetWeight":      func(e *Egress) { e.SetWeight(3, 2) },
	} {
		e := NewEgress(k, l, 0)
		first(e)
		if e.q == nil {
			t.Fatalf("%s did not allocate the queue block", name)
		}
	}
}
