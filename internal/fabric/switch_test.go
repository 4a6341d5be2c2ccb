package fabric

import (
	"math"
	"testing"

	"rocesim/internal/link"
	"rocesim/internal/packet"
	"rocesim/internal/pfc"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
)

// testHost is a minimal PFC-honoring server: it sources frames round-robin
// across its flows and sinks frames addressed to its MAC.
type testHost struct {
	k    *sim.Kernel
	name string
	mac  packet.MAC
	ip   packet.Addr
	gw   packet.MAC // ToR MAC
	eg   *link.Egress

	flows   []flow
	next    int
	sending bool
	uid     uint64

	got        []*packet.Packet
	mismatches int
	pauseRx    uint64
	dead       bool // dead servers neither send nor refresh their MAC entry
}

type flow struct {
	dst packet.Addr
	pri int
}

func newTestHost(k *sim.Kernel, name string, mac packet.MAC, ip packet.Addr) *testHost {
	return &testHost{k: k, name: name, mac: mac, ip: ip}
}

func (h *testHost) attach(l *link.Link, side int, gw packet.MAC) {
	h.gw = gw
	h.eg = link.NewEgress(k0(h.k), l, side)
	h.eg.OnTransmit = func(link.Item) { h.topUp() }
	l.Attach(side, h, 0)
}

func k0(k *sim.Kernel) *sim.Kernel { return k }

func (h *testHost) Receive(_ int, p *packet.Packet) {
	if p.IsPause() {
		h.pauseRx++
		h.eg.Pause.Handle(h.k.Now(), p.Pause)
		h.eg.Kick()
		return
	}
	if p.Eth.Dst != h.mac && !p.Eth.Dst.IsMulticast() {
		h.mismatches++
		return
	}
	if h.dead {
		return
	}
	h.got = append(h.got, p)
}

// start begins sending the configured flows as fast as the link allows.
func (h *testHost) start() {
	h.sending = true
	for i := 0; i < 4; i++ {
		h.topUp()
	}
}

func (h *testHost) stop() { h.sending = false }

func (h *testHost) topUp() {
	if !h.sending || h.dead || len(h.flows) == 0 {
		return
	}
	if h.eg.QueueLen(h.flows[0].pri) >= 4 {
		return
	}
	f := h.flows[h.next%len(h.flows)]
	h.next++
	h.uid++
	p := &packet.Packet{
		Eth: packet.Ethernet{Dst: h.gw, Src: h.mac, EtherType: packet.EtherTypeIPv4},
		IP: &packet.IPv4{
			DSCP: uint8(f.pri), ECN: packet.ECNECT0, TTL: 64,
			Protocol: packet.ProtoUDP, Src: h.ip, Dst: f.dst,
			ID: uint16(h.uid),
		},
		UDPH:       &packet.UDP{SrcPort: 49152, DstPort: packet.RoCEv2Port},
		BTH:        &packet.BTH{Opcode: packet.OpSendOnly, PSN: uint32(h.uid) & packet.PSNMask},
		PayloadLen: 1024,
		UID:        h.uid,
	}
	h.eg.Enqueue(link.Item{P: p, IngressPort: -1, Pri: int8(f.pri)})
}

func mac(b byte) packet.MAC          { return packet.MAC{0x02, 0, 0, 0, 0, b} }
func swMAC(b byte) packet.MAC        { return packet.MAC{0x02, 0xff, 0, 0, 0, b} }
func hostIP(sub, h byte) packet.Addr { return packet.IPv4Addr(10, 0, sub, h) }

// oneSwitchNet wires n hosts to a single ToR with the given per-host link
// rates.
func oneSwitchNet(t *testing.T, k *sim.Kernel, cfg Config, rates []simtime.Rate) (*Switch, []*testHost) {
	t.Helper()
	sw, err := NewSwitch(k, cfg, swMAC(0))
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*testHost, len(rates))
	for i, r := range rates {
		h := newTestHost(k, string(rune('A'+i)), mac(byte(i+1)), hostIP(0, byte(i+1)))
		l := link.New(k, r, 10*simtime.Nanosecond)
		sw.AttachLink(i, l, 0, h.mac, true)
		h.attach(l, 1, sw.MAC())
		sw.SetARP(h.ip, h.mac)
		sw.LearnMAC(h.mac, i)
		hosts[i] = h
	}
	sw.AddRoute(Route{Prefix: hostIP(0, 0), Bits: 24, Local: true})
	return sw, hosts
}

func TestLocalDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{40 * simtime.Gbps, 40 * simtime.Gbps})
	hosts[0].flows = []flow{{dst: hosts[1].ip, pri: 3}}
	hosts[0].start()
	k.RunUntil(simtime.Time(100 * simtime.Microsecond))
	hosts[0].stop()
	k.RunUntil(simtime.Time(200 * simtime.Microsecond))
	if len(hosts[1].got) == 0 {
		t.Fatal("no packets delivered")
	}
	p := hosts[1].got[0]
	if p.Eth.Dst != hosts[1].mac {
		t.Fatalf("final-hop MAC rewrite missing: %v", p.Eth.Dst)
	}
	if p.IP.TTL != 63 {
		t.Fatalf("TTL %d, want 63", p.IP.TTL)
	}
	if sw.C.IngressDrops.Value() != 0 {
		t.Fatalf("drops on an uncongested path: %d", sw.C.IngressDrops.Value())
	}
}

// TestUnicastForwardZeroAlloc pins the per-frame switch path at zero
// allocations once its queues and the kernel's free list are warm: one
// unicast data frame from Receive through admission, the forwarding
// pipeline, transmit, release and link delivery to the destination host.
func TestUnicastForwardZeroAlloc(t *testing.T) {
	k := sim.NewKernel(1)
	sw, hosts := oneSwitchNet(t, k, DefaultConfig("tor", 4), []simtime.Rate{40 * simtime.Gbps, 40 * simtime.Gbps})
	src, dst := hosts[0], hosts[1]
	p := &packet.Packet{
		IP: &packet.IPv4{
			DSCP: 3, ECN: packet.ECNECT0, Protocol: packet.ProtoUDP, Src: src.ip, Dst: dst.ip,
		},
		UDPH:       &packet.UDP{SrcPort: 49152, DstPort: packet.RoCEv2Port},
		BTH:        &packet.BTH{Opcode: packet.OpSendOnly},
		PayloadLen: 1024,
	}
	send := func() {
		p.Eth = packet.Ethernet{Dst: sw.MAC(), Src: src.mac, EtherType: packet.EtherTypeIPv4}
		p.IP.TTL = 64
		dst.got = dst.got[:0]
		sw.Receive(0, p)
		k.Run()
		if len(dst.got) != 1 {
			t.Fatalf("delivered %d frames, want 1", len(dst.got))
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("forwarding one unicast frame allocated %.1f times, want 0", allocs)
	}
}

func TestIncastGeneratesPFC(t *testing.T) {
	// Two 40G senders into one 40G receiver: the receiver's egress
	// queue builds, ingress accounting crosses XOFF, and the switch
	// pauses the senders. Nothing is dropped — the lossless guarantee.
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	cfg.ECN.Enabled = false
	r := 40 * simtime.Gbps
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{r, r, r})
	hosts[0].flows = []flow{{dst: hosts[2].ip, pri: 3}}
	hosts[1].flows = []flow{{dst: hosts[2].ip, pri: 3}}
	hosts[0].start()
	hosts[1].start()
	k.RunUntil(simtime.Time(20 * simtime.Millisecond))
	if sw.C.PauseTx.Value() == 0 {
		t.Fatal("sustained 2:1 incast must generate PFC")
	}
	if hosts[0].pauseRx == 0 && hosts[1].pauseRx == 0 {
		t.Fatal("no sender ever received a pause")
	}
	if sw.C.LosslessDrops.Value() != 0 {
		t.Fatalf("lossless drops under PFC: %d", sw.C.LosslessDrops.Value())
	}
	// Receiver keeps receiving at ~line rate.
	if len(hosts[2].got) < 50000 {
		t.Fatalf("receiver got only %d frames in 20ms", len(hosts[2].got))
	}
	hosts[0].stop()
	hosts[1].stop()
	k.RunUntil(simtime.Time(40 * simtime.Millisecond))
	// After the burst drains, the switch must resume the senders.
	if sw.MMU().Paused(0, 3) || sw.MMU().Paused(1, 3) {
		t.Fatal("senders still paused after drain")
	}
}

func TestLossyClassDropsInsteadOfPausing(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	r := 40 * simtime.Gbps
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{r, r, r})
	hosts[0].flows = []flow{{dst: hosts[2].ip, pri: 1}} // lossy class
	hosts[1].flows = []flow{{dst: hosts[2].ip, pri: 1}}
	hosts[0].start()
	hosts[1].start()
	k.RunUntil(simtime.Time(20 * simtime.Millisecond))
	if sw.C.PauseTx.Value() != 0 {
		t.Fatal("lossy class generated PFC")
	}
	if sw.C.IngressDrops.Value() == 0 {
		t.Fatal("2:1 incast on a lossy class must drop")
	}
}

func TestECNMarkingUnderCongestion(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	r := 40 * simtime.Gbps
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{r, r, r})
	hosts[0].flows = []flow{{dst: hosts[2].ip, pri: 3}}
	hosts[1].flows = []flow{{dst: hosts[2].ip, pri: 3}}
	hosts[0].start()
	hosts[1].start()
	k.RunUntil(simtime.Time(5 * simtime.Millisecond))
	if sw.C.ECNMarked.Value() == 0 {
		t.Fatal("no CE marks under sustained congestion")
	}
	var ce int
	for _, p := range hosts[2].got {
		if p.IP.ECN == packet.ECNCE {
			ce++
		}
	}
	if ce == 0 {
		t.Fatal("receiver saw no CE-marked packets")
	}
}

func TestNoECNMarkWithoutECT(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	r := 40 * simtime.Gbps
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{r, r, r})
	hosts[0].flows = []flow{{dst: hosts[2].ip, pri: 3}}
	hosts[1].flows = []flow{{dst: hosts[2].ip, pri: 3}}
	// Senders emit Not-ECT.
	hosts[0].start()
	hosts[1].start()
	for _, h := range hosts[:2] {
		h := h
		oldTopUp := h.flows
		_ = oldTopUp
	}
	// Simpler: flip ECT off after build by intercepting DropFn is
	// overkill; craft one not-ECT packet directly instead.
	p := &packet.Packet{
		Eth:        packet.Ethernet{Dst: sw.MAC(), Src: hosts[0].mac, EtherType: packet.EtherTypeIPv4},
		IP:         &packet.IPv4{DSCP: 3, ECN: packet.ECNNotECT, TTL: 64, Protocol: packet.ProtoUDP, Src: hosts[0].ip, Dst: hosts[2].ip},
		UDPH:       &packet.UDP{SrcPort: 1, DstPort: packet.RoCEv2Port},
		BTH:        &packet.BTH{Opcode: packet.OpSendOnly},
		PayloadLen: 1024,
	}
	k.RunUntil(simtime.Time(3 * simtime.Millisecond)) // congest first
	sw.Receive(0, p)
	k.RunUntil(simtime.Time(6 * simtime.Millisecond))
	for _, q := range hosts[2].got {
		if q.UDPH.SrcPort == 1 && q.IP.ECN == packet.ECNCE {
			t.Fatal("Not-ECT packet was CE-marked")
		}
	}
}

func TestDropFnInjectsLoss(t *testing.T) {
	// The livelock experiment's switch configuration: drop any packet
	// whose IP ID low byte is 0xff (1/256 deterministic loss).
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	r := 40 * simtime.Gbps
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{r, r})
	sw.DropFn = func(p *packet.Packet) bool {
		return p.IP != nil && p.IP.ID&0xff == 0xff
	}
	hosts[0].flows = []flow{{dst: hosts[1].ip, pri: 3}}
	hosts[0].start()
	k.RunUntil(simtime.Time(2 * simtime.Millisecond))
	hosts[0].stop()
	k.RunUntil(simtime.Time(3 * simtime.Millisecond))
	if sw.C.InjectedDrops.Value() == 0 {
		t.Fatal("DropFn never fired")
	}
	total := sw.C.InjectedDrops.Value() + uint64(len(hosts[1].got))
	ratio := float64(sw.C.InjectedDrops.Value()) / float64(total)
	if ratio < 0.5/256 || ratio > 2.0/256 {
		t.Fatalf("drop ratio %.5f, want ~1/256", ratio)
	}
	for _, p := range hosts[1].got {
		if p.IP.ID&0xff == 0xff {
			t.Fatal("a doomed packet got through")
		}
	}
}

func TestRouteLPMAndECMP(t *testing.T) {
	var rt routeTable
	rt.add(Route{Prefix: packet.IPv4Addr(10, 0, 0, 0), Bits: 8, Ports: []int{9}})
	rt.add(Route{Prefix: packet.IPv4Addr(10, 0, 1, 0), Bits: 24, Ports: []int{1, 2, 3, 4}})
	rt.add(Route{Prefix: packet.IPv4Addr(10, 0, 1, 7), Bits: 32, Ports: []int{5}})
	if r := rt.lookup(packet.IPv4Addr(10, 0, 1, 7)); r == nil || r.Ports[0] != 5 {
		t.Fatal("host route must win")
	}
	if r := rt.lookup(packet.IPv4Addr(10, 0, 1, 8)); r == nil || len(r.Ports) != 4 {
		t.Fatal("/24 must match")
	}
	if r := rt.lookup(packet.IPv4Addr(10, 9, 9, 9)); r == nil || r.Ports[0] != 9 {
		t.Fatal("/8 fallback")
	}
	if r := rt.lookup(packet.IPv4Addr(11, 0, 0, 1)); r != nil {
		t.Fatal("no match expected")
	}
	// Replacement.
	rt.add(Route{Prefix: packet.IPv4Addr(10, 0, 1, 0), Bits: 24, Ports: []int{7}})
	if r := rt.lookup(packet.IPv4Addr(10, 0, 1, 8)); len(r.Ports) != 1 || r.Ports[0] != 7 {
		t.Fatal("replacement failed")
	}
}

func TestMACLearningAndExpiry(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	cfg.MACTimeout = 100 * simtime.Microsecond
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{40 * simtime.Gbps, 40 * simtime.Gbps})
	hosts[0].flows = []flow{{dst: hosts[1].ip, pri: 3}}
	hosts[0].start()
	k.RunUntil(simtime.Time(50 * simtime.Microsecond))
	hosts[0].stop()
	// Host 0's entry was just refreshed by its own traffic.
	if _, ok := sw.lookupMAC(hosts[0].mac); !ok {
		t.Fatal("learned entry missing")
	}
	// After the timeout with no traffic, it expires.
	k.RunUntil(simtime.Time(400 * simtime.Microsecond))
	if _, ok := sw.lookupMAC(hosts[0].mac); ok {
		t.Fatal("entry survived expiry")
	}
}

func TestIncompleteARPFloods(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{
		40 * simtime.Gbps, 40 * simtime.Gbps, 40 * simtime.Gbps})
	// Host 2 "dies": its MAC entry expires while ARP remains.
	sw.ExpireMAC(hosts[2].mac)
	hosts[0].flows = []flow{{dst: hosts[2].ip, pri: 3}}
	hosts[0].start()
	k.RunUntil(simtime.Time(50 * simtime.Microsecond))
	hosts[0].stop()
	k.RunUntil(simtime.Time(100 * simtime.Microsecond))
	if sw.C.Floods.Value() == 0 {
		t.Fatal("incomplete ARP must flood")
	}
	// The innocent host 1 received stray copies (dst MAC mismatch).
	if hosts[1].mismatches == 0 {
		t.Fatal("flooded copies should reach innocent ports")
	}
}

func TestIncompleteARPDropFix(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	cfg.DropLosslessOnIncompleteARP = true
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{
		40 * simtime.Gbps, 40 * simtime.Gbps, 40 * simtime.Gbps})
	sw.ExpireMAC(hosts[2].mac)
	hosts[0].flows = []flow{{dst: hosts[2].ip, pri: 3}}
	hosts[0].start()
	k.RunUntil(simtime.Time(50 * simtime.Microsecond))
	hosts[0].stop()
	k.RunUntil(simtime.Time(100 * simtime.Microsecond))
	if sw.C.Floods.Value() != 0 {
		t.Fatal("fix enabled but still flooding")
	}
	if sw.C.ARPIncompleteDrops.Value() == 0 {
		t.Fatal("fix should count drops")
	}
	if hosts[1].mismatches != 0 {
		t.Fatal("innocent host still received strays")
	}
	// Lossy traffic to the dead host still floods (the fix only covers
	// lossless classes).
	hosts[0].flows = []flow{{dst: hosts[2].ip, pri: 1}}
	hosts[0].start()
	k.RunUntil(simtime.Time(150 * simtime.Microsecond))
	if sw.C.Floods.Value() == 0 {
		t.Fatal("lossy traffic should still flood")
	}
}

func TestARPMissDrops(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{40 * simtime.Gbps, 40 * simtime.Gbps})
	hosts[0].flows = []flow{{dst: hostIP(0, 99), pri: 3}} // no such host
	hosts[0].start()
	k.RunUntil(simtime.Time(20 * simtime.Microsecond))
	if sw.C.ARPMissDrops.Value() == 0 {
		t.Fatal("unknown local IP must count ARP-miss drops")
	}
}

func TestNoRouteDrops(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{40 * simtime.Gbps, 40 * simtime.Gbps})
	hosts[0].flows = []flow{{dst: packet.IPv4Addr(192, 168, 1, 1), pri: 3}}
	hosts[0].start()
	k.RunUntil(simtime.Time(20 * simtime.Microsecond))
	if sw.C.NoRouteDrops.Value() == 0 {
		t.Fatal("unroutable destination must count")
	}
}

func TestVLANBasedPFCClassification(t *testing.T) {
	// In the original VLAN-based deployment, priority rides in the PCP
	// bits; the switch classifies on it even if DSCP is zero.
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tor", 4)
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{40 * simtime.Gbps, 40 * simtime.Gbps})
	p := &packet.Packet{
		Eth:        packet.Ethernet{Dst: sw.MAC(), Src: hosts[0].mac, EtherType: packet.EtherTypeIPv4},
		VLAN:       &packet.VLANTag{PCP: 3, VID: 2},
		IP:         &packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: hosts[0].ip, Dst: hosts[1].ip},
		UDPH:       &packet.UDP{SrcPort: 7, DstPort: packet.RoCEv2Port},
		BTH:        &packet.BTH{Opcode: packet.OpSendOnly},
		PayloadLen: 64,
	}
	sw.Receive(0, p)
	k.Run()
	if len(hosts[1].got) != 1 {
		t.Fatal("VLAN-tagged frame not delivered")
	}
	if sw.port[0].RxByPri[3] != 1 {
		t.Fatal("PCP priority not honored")
	}
}

func TestPerPacketSpraySpreadsOneFlow(t *testing.T) {
	// One flow, four equal-cost ports: flow-ECMP pins it to one port;
	// per-packet spray spreads it across all of them.
	run := func(spray bool) int {
		k := sim.NewKernel(9)
		cfg := DefaultConfig("sw", 6)
		cfg.PerPacketSpray = spray
		sw, err := NewSwitch(k, cfg, swMAC(9))
		if err != nil {
			t.Fatal(err)
		}
		h := newTestHost(k, "src", mac(1), hostIP(0, 1))
		l := link.New(k, 40*simtime.Gbps, 0)
		sw.AttachLink(0, l, 0, h.mac, true)
		h.attach(l, 1, sw.MAC())
		sinks := make([]*testHost, 4)
		for i := 0; i < 4; i++ {
			s := newTestHost(k, "sink", mac(byte(10+i)), hostIP(1, byte(i+1)))
			ls := link.New(k, 40*simtime.Gbps, 0)
			sw.AttachLink(i+1, ls, 0, s.mac, false)
			s.attach(ls, 1, sw.MAC())
			sinks[i] = s
		}
		sw.AddRoute(Route{Prefix: hostIP(1, 0), Bits: 24, Ports: []int{1, 2, 3, 4}})
		h.flows = []flow{{dst: hostIP(1, 1), pri: 3}}
		h.start()
		k.RunUntil(simtime.Time(100 * simtime.Microsecond))
		used := 0
		for i := 0; i < 4; i++ {
			if sw.Egress(i + 1).TxByPri[3] > 0 {
				used++
			}
		}
		return used
	}
	if got := run(false); got != 1 {
		t.Fatalf("flow-ECMP used %d ports for one flow, want 1", got)
	}
	if got := run(true); got < 3 {
		t.Fatalf("spray used only %d/4 ports", got)
	}
}

func TestECNMarkingBoundaries(t *testing.T) {
	// Below KMin: never mark. Above KMax: always mark (for ECT).
	k := sim.NewKernel(10)
	cfg := DefaultConfig("sw", 4)
	cfg.ECN = ECNConfig{Enabled: true, KMin: 10 * 1086, KMax: 20 * 1086, PMax: 0.5}
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{40 * simtime.Gbps, 40 * simtime.Gbps})
	// Pause the egress to host 1 so the queue builds deterministically.
	sw.Egress(1).Pause.Handle(0, packet.NewPause(packet.MAC{}, 1<<3, 0xffff).Pause)
	send := func() {
		p := &packet.Packet{
			Eth:        packet.Ethernet{Dst: sw.MAC(), Src: hosts[0].mac, EtherType: packet.EtherTypeIPv4},
			IP:         &packet.IPv4{DSCP: 3, ECN: packet.ECNECT0, TTL: 64, Protocol: packet.ProtoUDP, Src: hosts[0].ip, Dst: hosts[1].ip},
			UDPH:       &packet.UDP{SrcPort: 9, DstPort: packet.RoCEv2Port},
			BTH:        &packet.BTH{Opcode: packet.OpSendOnly},
			PayloadLen: 1024,
		}
		sw.Receive(0, p)
		k.RunUntil(k.Now().Add(2 * simtime.Microsecond))
	}
	for i := 0; i < 10; i++ { // queue stays below KMin while these land
		send()
	}
	if sw.C.ECNMarked.Value() != 0 {
		t.Fatalf("marked %d below KMin", sw.C.ECNMarked.Value())
	}
	for i := 0; i < 30; i++ { // push well past KMax
		send()
	}
	if sw.C.ECNMarked.Value() == 0 {
		t.Fatal("never marked above KMax")
	}
}

// Regression: ACK/NAK/CNP must never be CE-marked. The transport stamps
// ACKs ECT0 (they share the data header stack), so before the fix a
// congested egress marked them like data — and per the DCQCN NP spec a
// marked ACK makes the ACK's receiver generate CNPs toward the ACK
// sender (CNPs about control traffic).
func TestControlPacketsNeverECNMarked(t *testing.T) {
	k := sim.NewKernel(13)
	cfg := DefaultConfig("sw", 4)
	cfg.ECN = ECNConfig{Enabled: true, KMin: 10 * 1086, KMax: 20 * 1086, PMax: 0.5}
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{40 * simtime.Gbps, 40 * simtime.Gbps})
	// Pause the egress to host 1 so the queue builds past KMax, where
	// every ECT packet is marked with probability 1.
	sw.Egress(1).Pause.Handle(0, packet.NewPause(packet.MAC{}, 1<<3, 0xffff).Pause)
	send := func(op packet.Opcode) {
		p := &packet.Packet{
			Eth:        packet.Ethernet{Dst: sw.MAC(), Src: hosts[0].mac, EtherType: packet.EtherTypeIPv4},
			IP:         &packet.IPv4{DSCP: 3, ECN: packet.ECNECT0, TTL: 64, Protocol: packet.ProtoUDP, Src: hosts[0].ip, Dst: hosts[1].ip},
			UDPH:       &packet.UDP{SrcPort: 9, DstPort: packet.RoCEv2Port},
			BTH:        &packet.BTH{Opcode: op},
			PayloadLen: 1024,
		}
		if op == packet.OpAcknowledge || op == packet.OpCNP {
			p.PayloadLen = 0
			p.AttachAETH()
		}
		sw.Receive(0, p)
		k.RunUntil(k.Now().Add(2 * simtime.Microsecond))
	}
	for i := 0; i < 40; i++ { // saturate well past KMax
		send(packet.OpSendOnly)
	}
	if sw.C.ECNMarked.Value() == 0 {
		t.Fatal("setup: data packets above KMax must be marked")
	}
	marked := sw.C.ECNMarked.Value()
	for i := 0; i < 10; i++ {
		send(packet.OpAcknowledge) // ACK and NAK share the opcode
		send(packet.OpCNP)
	}
	if got := sw.C.ECNMarked.Value(); got != marked {
		t.Fatalf("control packets were CE-marked: %d new marks", got-marked)
	}
}

// Watchdog round trip: trip the switch-side storm watchdog, verify PFC
// generation on the port actually stops while lossless mode is off
// (pre-fix the refresher kept XOFF-refreshing the tripped port forever),
// then let the pauses disappear and verify re-enable re-derives pause
// state from the MMU — a PG whose ingress bucket is still over threshold
// must be re-XOFFed, or it silently overfills once the sender resumes.
func TestWatchdogReenableRestoresPauseState(t *testing.T) {
	k := sim.NewKernel(14)
	cfg := DefaultConfig("tor", 4)
	cfg.ECN.Enabled = false
	cfg.Watchdog = WatchdogConfig{
		Enabled:       true,
		TripWindow:    1 * simtime.Millisecond,
		ReenableAfter: 2 * simtime.Millisecond,
		Poll:          200 * simtime.Microsecond,
	}
	r := 40 * simtime.Gbps
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{r, r, r})
	// Host 0 -> host 1: traffic that will sit unDrained on egress 1.
	hosts[0].flows = []flow{{dst: hosts[1].ip, pri: 3}}
	// Host 1 -> host 2: fills ingress bucket (port 1, PG 3) because
	// egress 2 is held paused below.
	hosts[1].flows = []flow{{dst: hosts[2].ip, pri: 3}}
	// Host 1 storms pause frames at the switch (the malfunctioning-NIC
	// role); egress 1 stops draining while pauses keep arriving.
	storm := k.NewTicker(300*simtime.Microsecond, func() {
		sw.Receive(1, packet.NewPause(hosts[1].mac, 1<<3, pfc.MaxQuanta))
	})
	// Hold egress 2 paused so host 1's frames stay buffered.
	block := k.NewTicker(500*simtime.Microsecond, func() {
		sw.Egress(2).Pause.Handle(k.Now(), packet.NewPause(hosts[2].mac, 1<<3, pfc.MaxQuanta).Pause)
	})
	hosts[0].start()
	hosts[1].start()

	// Phase 1: the storm persists past the trip window.
	k.RunUntil(simtime.Time(3 * simtime.Millisecond))
	if !sw.LosslessDisabled(1) {
		t.Fatal("watchdog never tripped port 1")
	}
	if !sw.MMU().Paused(1, 3) {
		t.Fatal("setup: ingress bucket (1,3) must still be over threshold at trip")
	}
	_, _, txPauseAtTrip := sw.PortCounters(1)

	// Phase 2: still disabled — the port must emit no pause frames.
	k.RunUntil(simtime.Time(4 * simtime.Millisecond))
	if _, _, tx := sw.PortCounters(1); tx != txPauseAtTrip {
		t.Fatalf("port kept generating PFC while lossless-disabled: %d new frames", tx-txPauseAtTrip)
	}
	storm.Stop()

	// Phase 3: pauses gone; after ReenableAfter the port re-enables and
	// must re-assert XOFF for the still-congested PG.
	k.RunUntil(simtime.Time(7 * simtime.Millisecond))
	if sw.LosslessDisabled(1) {
		t.Fatal("port never re-enabled after pauses stopped")
	}
	if sw.Pauser(1).Engaged()&(1<<3) == 0 {
		t.Fatal("re-enable left the congested PG unpaused (XOFF latch lost)")
	}

	// Phase 4: release the downstream block; everything drains, the
	// pause lifts, and the lossless guarantee held throughout.
	block.Stop()
	hosts[0].stop()
	hosts[1].stop()
	k.RunUntil(simtime.Time(12 * simtime.Millisecond))
	if sw.Pauser(1).Engaged() != 0 {
		t.Fatalf("still engaged after drain: %08b", sw.Pauser(1).Engaged())
	}
	if sw.C.LosslessDrops.Value() != 0 {
		t.Fatalf("lossless drops across the round trip: %d", sw.C.LosslessDrops.Value())
	}
}

func TestTTLExpiryDrops(t *testing.T) {
	k := sim.NewKernel(11)
	cfg := DefaultConfig("sw", 4)
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{40 * simtime.Gbps, 40 * simtime.Gbps})
	p := &packet.Packet{
		Eth:        packet.Ethernet{Dst: sw.MAC(), Src: hosts[0].mac, EtherType: packet.EtherTypeIPv4},
		IP:         &packet.IPv4{DSCP: 3, TTL: 1, Protocol: packet.ProtoUDP, Src: hosts[0].ip, Dst: hosts[1].ip},
		UDPH:       &packet.UDP{SrcPort: 9, DstPort: packet.RoCEv2Port},
		BTH:        &packet.BTH{Opcode: packet.OpSendOnly},
		PayloadLen: 64,
	}
	sw.Receive(0, p)
	k.Run()
	if sw.C.TTLDrops.Value() != 1 {
		t.Fatalf("TTL drops %d", sw.C.TTLDrops.Value())
	}
	if len(hosts[1].got) != 0 {
		t.Fatal("expired packet delivered")
	}
}

func TestDWRRBandwidthReservationForTCPClass(t *testing.T) {
	// The paper reserves bandwidth for the TCP class via weights. Give
	// the TCP class (1) triple weight and verify it gets ~3x under
	// saturation against the bulk class on one egress.
	k := sim.NewKernel(12)
	cfg := DefaultConfig("sw", 4)
	cfg.ECN.Enabled = false
	sw, hosts := oneSwitchNet(t, k, cfg, []simtime.Rate{
		40 * simtime.Gbps, 40 * simtime.Gbps, 40 * simtime.Gbps})
	sw.Egress(2).SetWeight(1, 3)
	hosts[0].flows = []flow{{dst: hosts[2].ip, pri: 1}}
	hosts[1].flows = []flow{{dst: hosts[2].ip, pri: 4}}
	hosts[0].start()
	hosts[1].start()
	k.RunUntil(simtime.Time(5 * simtime.Millisecond))
	tcp := float64(sw.Egress(2).TxByPri[1])
	bulk := float64(sw.Egress(2).TxByPri[4])
	if tcp/bulk < 2.0 || tcp/bulk > 4.5 {
		t.Fatalf("weight-3 TCP class got %.0f vs bulk %.0f (ratio %.2f, want ~3)", tcp, bulk, tcp/bulk)
	}
}

// TestNewSwitchPortLimit: a queued frame records its ingress port in an
// int16, so NewSwitch refuses a switch with more ports than that holds.
func TestNewSwitchPortLimit(t *testing.T) {
	k := sim.NewKernel(1)
	for _, ports := range []int{0, math.MaxInt16 + 1} {
		if _, err := NewSwitch(k, DefaultConfig("big", ports), swMAC(1)); err == nil {
			t.Fatalf("NewSwitch accepted %d ports", ports)
		}
	}
}
