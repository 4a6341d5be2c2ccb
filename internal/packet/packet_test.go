package packet

import (
	"errors"
	"hash/fnv"
	"testing"
	"testing/quick"
)

func roceDataPacket() *Packet {
	return &Packet{
		Eth: Ethernet{
			Dst:       MAC{0x02, 0, 0, 0, 0, 2},
			Src:       MAC{0x02, 0, 0, 0, 0, 1},
			EtherType: EtherTypeIPv4,
		},
		IP: &IPv4{
			DSCP:     3,
			ECN:      ECNECT0,
			ID:       0x1234,
			TTL:      64,
			Protocol: ProtoUDP,
			Src:      IPv4Addr(10, 0, 0, 1),
			Dst:      IPv4Addr(10, 0, 1, 2),
		},
		UDPH: &UDP{SrcPort: 49152, DstPort: RoCEv2Port},
		BTH: &BTH{
			Opcode: OpSendMiddle,
			PKey:   0xffff,
			DestQP: 77,
			AckReq: true,
			PSN:    123456,
		},
		PayloadLen: 1024,
	}
}

func TestWireLen1086(t *testing.T) {
	// The paper (Fig 7): "The RDMA frame size is 1086 bytes with 1024
	// bytes as payload." Eth 14 + IP 20 + UDP 8 + BTH 12 + ICRC 4 +
	// FCS 4 + 1024 = 1086.
	p := roceDataPacket()
	if got := p.WireLen(); got != 1086 {
		t.Fatalf("WireLen = %d, want 1086", got)
	}
}

func TestWireLenWithRETH(t *testing.T) {
	p := roceDataPacket()
	p.BTH.Opcode = OpWriteFirst
	p.RETH = &RETH{VA: 0x1000, RKey: 7, DMALen: 1 << 22}
	if got := p.WireLen(); got != 1086+RETHLen {
		t.Fatalf("WireLen = %d, want %d", got, 1086+RETHLen)
	}
}

func TestPauseFrameFixedSize(t *testing.T) {
	p := NewPause(MAC{0x02, 0, 0, 0, 0, 9}, 1<<3, 0xffff)
	if p.WireLen() != 64 {
		t.Fatalf("pause frame = %d bytes, want 64", p.WireLen())
	}
	if !p.IsPause() {
		t.Fatal("IsPause")
	}
	if p.Eth.Dst != PFCDestination {
		t.Fatalf("pause dst %v", p.Eth.Dst)
	}
	if !p.Pause.Enabled(3) || p.Pause.Enabled(2) {
		t.Fatal("class enable vector wrong")
	}
	if p.Pause.IsResume() {
		t.Fatal("nonzero quanta is not a resume")
	}
	r := NewPause(MAC{}, 1<<3, 0)
	if !r.Pause.IsResume() {
		t.Fatal("zero quanta is a resume")
	}
}

func TestMinFramePadding(t *testing.T) {
	p := &Packet{
		Eth:        Ethernet{EtherType: EtherTypeIPv4},
		IP:         &IPv4{Protocol: ProtoUDP, TTL: 64},
		UDPH:       &UDP{SrcPort: 1, DstPort: 2},
		PayloadLen: 1,
	}
	if p.WireLen() != MinFrameLen {
		t.Fatalf("tiny frame = %d, want %d", p.WireLen(), MinFrameLen)
	}
}

func TestMarshalParseRoundTripRoCE(t *testing.T) {
	for _, build := range []func() *Packet{
		roceDataPacket,
		func() *Packet {
			p := roceDataPacket()
			p.BTH.Opcode = OpWriteFirst
			p.RETH = &RETH{VA: 0xdeadbeef0000, RKey: 42, DMALen: 4 << 20}
			return p
		},
		func() *Packet {
			p := roceDataPacket()
			p.BTH.Opcode = OpAcknowledge
			p.AETH = &AETH{Syndrome: AETHNak | NakPSNSequenceError, MSN: 9}
			p.PayloadLen = 0
			p.BTH.AckReq = false
			return p
		},
		func() *Packet {
			p := roceDataPacket()
			p.BTH.Opcode = OpReadRequest
			p.RETH = &RETH{VA: 0x7000, RKey: 3, DMALen: 4096}
			p.PayloadLen = 0
			return p
		},
		func() *Packet {
			p := roceDataPacket()
			p.BTH.Opcode = OpCNP
			p.PayloadLen = 16
			p.BTH.AckReq = false
			return p
		},
	} {
		in := build()
		data := in.Marshal()
		if len(data) != in.WireLen() {
			t.Fatalf("%v: marshal %d bytes, WireLen %d", in.BTH.Opcode, len(data), in.WireLen())
		}
		out, err := Parse(data)
		if err != nil {
			t.Fatalf("%v: parse: %v", in.BTH.Opcode, err)
		}
		if out.Eth != in.Eth {
			t.Errorf("eth mismatch: %+v vs %+v", out.Eth, in.Eth)
		}
		if *out.IP != *in.IP {
			t.Errorf("ip mismatch: %+v vs %+v", out.IP, in.IP)
		}
		if *out.UDPH != *in.UDPH {
			t.Errorf("udp mismatch: %+v vs %+v", out.UDPH, in.UDPH)
		}
		if *out.BTH != *in.BTH {
			t.Errorf("bth mismatch: %+v vs %+v", out.BTH, in.BTH)
		}
		if in.RETH != nil && *out.RETH != *in.RETH {
			t.Errorf("reth mismatch: %+v vs %+v", out.RETH, in.RETH)
		}
		if in.AETH != nil && *out.AETH != *in.AETH {
			t.Errorf("aeth mismatch: %+v vs %+v", out.AETH, in.AETH)
		}
		if out.PayloadLen != in.PayloadLen {
			t.Errorf("payload %d vs %d", out.PayloadLen, in.PayloadLen)
		}
	}
}

func TestMarshalParseRoundTripPause(t *testing.T) {
	in := NewPause(MAC{0x02, 1, 2, 3, 4, 5}, 0b00001001, 0x7fff)
	data := in.Marshal()
	if len(data) != 64 {
		t.Fatalf("pause marshal %d bytes", len(data))
	}
	out, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsPause() || *out.Pause != *in.Pause {
		t.Fatalf("pause mismatch: %+v vs %+v", out.Pause, in.Pause)
	}
}

func TestMarshalParseVLANTagged(t *testing.T) {
	in := roceDataPacket()
	in.VLAN = &VLANTag{PCP: 3, DEI: false, VID: 991}
	data := in.Marshal()
	out, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.VLAN == nil || *out.VLAN != *in.VLAN {
		t.Fatalf("vlan mismatch: %+v vs %+v", out.VLAN, in.VLAN)
	}
	if got := out.Priority(nil); got != 3 {
		t.Fatalf("VLAN priority = %d, want 3 (from PCP)", got)
	}
}

func TestPriorityDSCPvsVLAN(t *testing.T) {
	p := roceDataPacket() // DSCP 3, untagged
	if got := p.Priority(nil); got != 3 {
		t.Fatalf("identity DSCP map: %d", got)
	}
	manyToOne := func(dscp uint8) int {
		if dscp >= 3 {
			return 3
		}
		return 0
	}
	p.IP.DSCP = 46
	if got := p.Priority(manyToOne); got != 3 {
		t.Fatalf("many-to-one map: %d", got)
	}
	// Tagged packets take PCP regardless of DSCP.
	p.VLAN = &VLANTag{PCP: 5}
	if got := p.Priority(manyToOne); got != 5 {
		t.Fatalf("tagged: %d", got)
	}
	// Non-IP untagged (a PXE/ARP frame) rides priority 0.
	arp := &Packet{Eth: Ethernet{EtherType: 0x0806}, PayloadLen: 28}
	if got := arp.Priority(nil); got != 0 {
		t.Fatalf("non-IP: %d", got)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	data := roceDataPacket().Marshal()
	data[14+8] ^= 0xff // flip TTL
	if _, err := Parse(data); err == nil {
		t.Fatal("corrupted IP header parsed without error")
	}
}

func TestParseTruncated(t *testing.T) {
	if _, err := Parse(make([]byte, 10)); err == nil {
		t.Fatal("short frame must fail")
	}
}

func TestFlowKeyHashSpreads(t *testing.T) {
	// Source ports are random per QP so ECMP spreads QPs over paths.
	// Distinct ports must hash to many distinct buckets.
	buckets := map[uint64]bool{}
	p := roceDataPacket()
	for port := 0; port < 1024; port++ {
		p.UDPH.SrcPort = uint16(49152 + port)
		buckets[p.Flow().Hash()%128] = true
	}
	if len(buckets) < 100 {
		t.Fatalf("1024 flows hit only %d/128 buckets", len(buckets))
	}
}

// TestFlowKeyHashIsFNV1a pins the unrolled ECMP hash to FNV-1a over
// the five-tuple's bytes: a changed hash would move every flow's path.
func TestFlowKeyHashIsFNV1a(t *testing.T) {
	f := func(k FlowKey) bool {
		h := fnv.New64a()
		h.Write(k.Src[:])
		h.Write(k.Dst[:])
		h.Write([]byte{k.Proto, byte(k.SrcPort >> 8), byte(k.SrcPort), byte(k.DstPort >> 8), byte(k.DstPort)})
		return k.Hash() == h.Sum64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: IPv4Addr(1, 2, 3, 4), Dst: IPv4Addr(5, 6, 7, 8), Proto: ProtoUDP, SrcPort: 99, DstPort: 4791}
	r := k.Reverse()
	if r.Src != k.Dst || r.SrcPort != k.DstPort || r.Reverse() != k {
		t.Fatalf("reverse broken: %+v", r)
	}
}

func TestOpcodePredicates(t *testing.T) {
	cases := []struct {
		op                     Opcode
		req, first, last, resp bool
	}{
		{OpSendFirst, true, true, false, false},
		{OpSendMiddle, true, false, false, false},
		{OpSendLast, true, false, true, false},
		{OpSendOnly, true, false, true, false},
		{OpWriteOnly, true, false, true, false},
		{OpReadRequest, true, false, false, false},
		{OpReadResponseOnly, false, false, true, true},
		{OpReadResponseMiddle, false, false, false, true},
		{OpAcknowledge, false, false, false, false},
		{OpCNP, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsRequest() != c.req || c.op.IsFirst() != c.first ||
			c.op.IsLast() != c.last || c.op.IsReadResponse() != c.resp {
			t.Errorf("%v predicates wrong", c.op)
		}
	}
}

func TestAETHNak(t *testing.T) {
	a := AETH{Syndrome: AETHNak | NakPSNSequenceError}
	if !a.IsNak() || a.NakCode() != NakPSNSequenceError {
		t.Fatal("NAK syndrome decode")
	}
	ack := AETH{Syndrome: AETHAck | 0x1f}
	if ack.IsNak() {
		t.Fatal("ACK misread as NAK")
	}
}

func TestMACHelpers(t *testing.T) {
	if !Broadcast.IsMulticast() || !PFCDestination.IsMulticast() {
		t.Fatal("multicast bit")
	}
	if (MAC{0x02, 0, 0, 0, 0, 1}).IsMulticast() {
		t.Fatal("unicast misread")
	}
	var z MAC
	if !z.IsZero() {
		t.Fatal("IsZero")
	}
	if (MAC{0xaa, 0xbb, 0xcc, 0, 0, 1}).String() != "aa:bb:cc:00:00:01" {
		t.Fatal("MAC string")
	}
}

func TestAddrConversions(t *testing.T) {
	a := IPv4Addr(10, 1, 2, 3)
	if AddrFromUint32(a.Uint32()) != a {
		t.Fatal("addr uint32 round trip")
	}
	if a.String() != "10.1.2.3" {
		t.Fatalf("addr string %s", a.String())
	}
}

// Property: marshal/parse round trip preserves the BTH for arbitrary
// fields within their wire bounds.
func TestBTHRoundTripProperty(t *testing.T) {
	f := func(qp, psn uint32, pkey uint16, ack bool) bool {
		in := roceDataPacket()
		in.BTH.DestQP = qp & 0xffffff
		in.BTH.PSN = psn & PSNMask
		in.BTH.PKey = pkey
		in.BTH.AckReq = ack
		out, err := Parse(in.Marshal())
		if err != nil {
			return false
		}
		return *out.BTH == *in.BTH
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the IPv4 checksum verifies for arbitrary header fields.
func TestIPv4ChecksumProperty(t *testing.T) {
	f := func(id uint16, dscp uint8, src, dst uint32) bool {
		in := roceDataPacket()
		in.IP.ID = id
		in.IP.DSCP = dscp & 0x3f
		in.IP.Src = AddrFromUint32(src)
		in.IP.Dst = AddrFromUint32(dst)
		out, err := Parse(in.Marshal())
		return err == nil && *out.IP == *in.IP
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalParseRoundTripSACK(t *testing.T) {
	p := roceDataPacket()
	p.BTH.Opcode = OpAcknowledge
	p.BTH.AckReq = false
	p.PayloadLen = 0
	p.AETH = &AETH{Syndrome: AETHNak | NakSACK, MSN: 12}
	p.SACK = &SACK{Bitmap: 1<<2 | 1<<5 | 1<<63}
	data := p.Marshal()
	if len(data) != p.WireLen() {
		t.Fatalf("marshal %d bytes, WireLen %d", len(data), p.WireLen())
	}
	out, err := Parse(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if out.AETH == nil || !out.AETH.IsNak() || out.AETH.NakCode() != NakSACK {
		t.Fatalf("AETH round trip: %+v", out.AETH)
	}
	if out.SACK == nil || out.SACK.Bitmap != p.SACK.Bitmap {
		t.Fatalf("SACK round trip: %+v", out.SACK)
	}

	// A plain PSN-sequence-error NAK must NOT grow a SACK extension.
	p2 := roceDataPacket()
	p2.BTH.Opcode = OpAcknowledge
	p2.BTH.AckReq = false
	p2.PayloadLen = 0
	p2.AETH = &AETH{Syndrome: AETHNak | NakPSNSequenceError, MSN: 12}
	out2, err := Parse(p2.Marshal())
	if err != nil {
		t.Fatalf("parse plain NAK: %v", err)
	}
	if out2.SACK != nil {
		t.Fatal("plain NAK grew a SACK extension on parse")
	}
	if p2.WireLen() != p.WireLen()-SACKLen {
		t.Fatalf("SACK must add exactly %d wire bytes", SACKLen)
	}

	// A NakSACK syndrome whose SACK words are missing must fail loudly,
	// not parse garbage. Flip the syndrome byte of the plain NAK in
	// place (AETH starts after Eth 14 + IPv4 20 + UDP 8 + BTH 12).
	raw := p2.Marshal()
	raw[14+IPv4HeaderLen+UDPHeaderLen+BTHLen] = AETHNak | NakSACK
	if _, err := Parse(raw); !errors.Is(err, ErrTruncated) {
		t.Fatalf("NakSACK without SACK words: err=%v, want ErrTruncated", err)
	}
}

// TestPoolGetAllocs pins a cold Get at one allocation, the packet and
// its header box together, and a warm Get at none; attaching headers
// into the box allocates nothing either way.
func TestPoolGetAllocs(t *testing.T) {
	pl := NewPool()
	get := func() *Packet {
		p := pl.Get()
		p.AttachIP()
		p.AttachUDP()
		p.AttachBTH()
		return p
	}
	if n := testing.AllocsPerRun(100, func() { get() }); n != 1 {
		t.Fatalf("cold Get: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { pl.Put(get()) }); n != 0 {
		t.Fatalf("warm Get: %v allocations, want 0", n)
	}
}
