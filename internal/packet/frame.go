package packet

import "fmt"

// Packet is one frame in flight through the simulated fabric. It is a
// parsed-form representation: layers that are absent are nil. The hot path
// never serializes; WireLen accounts for every header a real frame would
// carry so that link timing is exact.
type Packet struct {
	Eth   Ethernet
	VLAN  *VLANTag
	IP    *IPv4
	UDPH  *UDP
	BTH   *BTH
	RETH  *RETH
	AETH  *AETH
	SACK  *SACK
	Pause *PFCPause

	// PayloadLen is the RDMA/application payload size in bytes (after the
	// transport headers, before ICRC).
	PayloadLen int

	// TCPSeg carries the simplified TCP model's segment state when the
	// packet belongs to a TCP flow (Protocol == ProtoTCP). It is opaque to
	// the fabric except for its wire size contribution.
	TCPSeg interface{}
	// TCPHdrLen is the TCP header size accounted on the wire for TCP
	// segments (0 for non-TCP packets).
	TCPHdrLen int

	// UID is a unique packet id assigned by the sender, for tracing.
	UID uint64

	// box is the pooled header storage when the packet was drawn from a
	// Pool; nil for plain allocations and clones.
	box *box
}

// IsPause reports whether the packet is a PFC pause frame.
func (p *Packet) IsPause() bool { return p.Pause != nil }

// IsRoCE reports whether the packet carries a RoCEv2 transport header.
func (p *Packet) IsRoCE() bool { return p.BTH != nil }

// IsCNP reports whether the packet is a congestion notification packet.
func (p *Packet) IsCNP() bool { return p.BTH != nil && p.BTH.Opcode == OpCNP }

// WireLen returns the frame's size on the wire in bytes, including all
// headers and the Ethernet FCS but not preamble or inter-frame gap (the
// link model adds those).
func (p *Packet) WireLen() int {
	if p.IsPause() {
		return PauseFrameLen
	}
	n := EthernetHeaderLen
	if p.VLAN != nil {
		n += VLANTagLen
	}
	if p.IP != nil {
		n += IPv4HeaderLen
	}
	switch {
	case p.BTH != nil:
		n += UDPHeaderLen + BTHLen
		if p.RETH != nil {
			n += RETHLen
		}
		if p.AETH != nil {
			n += AETHLen
		}
		if p.SACK != nil {
			n += SACKLen
		}
		n += p.PayloadLen + ICRCLen
	case p.IP != nil && p.IP.Protocol == ProtoTCP:
		n += p.TCPHdrLen + p.PayloadLen
	case p.UDPH != nil:
		n += UDPHeaderLen + p.PayloadLen
	default:
		n += p.PayloadLen
	}
	n += EthernetFCSLen
	if n < MinFrameLen {
		n = MinFrameLen
	}
	return n
}

// Priority returns the PFC priority the packet travels in: the VLAN PCP
// when tagged, otherwise the DSCP-derived priority using the given
// many-to-one DSCP→priority map (nil means identity over the low 3 bits,
// the paper's "DSCP value i maps to priority i" deployment choice).
// Untagged non-IP packets (e.g. ARP, PXE) ride priority 0.
func (p *Packet) Priority(dscpMap func(dscp uint8) int) int {
	if p.VLAN != nil {
		return int(p.VLAN.PCP)
	}
	if p.IP != nil {
		if dscpMap != nil {
			return dscpMap(p.IP.DSCP)
		}
		return int(p.IP.DSCP & 0x7)
	}
	return 0
}

// DSCPForPriority encodes a PFC priority in the DSCP field using the
// production convention DSCP = priority × 8 (each class owns a DSCP
// block of 8; the class selector code points CS0..CS7).
func DSCPForPriority(pri int) uint8 { return uint8(pri&0x7) << 3 }

// PriorityForDSCP inverts DSCPForPriority: the class selector's high 3
// bits name the priority. Use as the fabric's DSCPMap in deployments
// that run the ×8 convention.
func PriorityForDSCP(dscp uint8) int { return int(dscp >> 3) }

// FlowKey is the five-tuple the fabric's ECMP hashes on.
type FlowKey struct {
	Src, Dst         Addr
	Proto            uint8
	SrcPort, DstPort uint16
}

// Flow extracts the packet's five-tuple. Packets without L3/L4 headers
// return a zero key.
func (p *Packet) Flow() FlowKey {
	var k FlowKey
	if p.IP == nil {
		return k
	}
	k.Src, k.Dst, k.Proto = p.IP.Src, p.IP.Dst, p.IP.Protocol
	if p.UDPH != nil {
		k.SrcPort, k.DstPort = p.UDPH.SrcPort, p.UDPH.DstPort
	}
	return k
}

// Hash returns the 64-bit FNV-1a hash of the five-tuple's 13 bytes
// (source, destination, protocol, then both ports big-endian), the
// function intermediate switches use for ECMP next-hop selection. It is
// unrolled: every forwarded frame pays for it at each ECMP hop.
func (k FlowKey) Hash() uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, k.Src[0])
	h = fnvMix(h, k.Src[1])
	h = fnvMix(h, k.Src[2])
	h = fnvMix(h, k.Src[3])
	h = fnvMix(h, k.Dst[0])
	h = fnvMix(h, k.Dst[1])
	h = fnvMix(h, k.Dst[2])
	h = fnvMix(h, k.Dst[3])
	h = fnvMix(h, k.Proto)
	h = fnvMix(h, byte(k.SrcPort>>8))
	h = fnvMix(h, byte(k.SrcPort))
	h = fnvMix(h, byte(k.DstPort>>8))
	return fnvMix(h, byte(k.DstPort))
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one byte into an FNV-1a hash.
func fnvMix(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// Reverse returns the key with endpoints swapped.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, Proto: k.Proto, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// String renders a compact one-line description, for traces and tests.
func (p *Packet) String() string {
	switch {
	case p.IsPause():
		return fmt.Sprintf("PFC[cev=%08b quanta=%v]", p.Pause.ClassEnable, p.Pause.Quanta)
	case p.IsRoCE():
		return fmt.Sprintf("%s %s->%s qp=%d psn=%d len=%d",
			p.BTH.Opcode, p.IP.Src, p.IP.Dst, p.BTH.DestQP, p.BTH.PSN, p.PayloadLen)
	case p.IP != nil && p.IP.Protocol == ProtoTCP:
		return fmt.Sprintf("TCP %s->%s len=%d", p.IP.Src, p.IP.Dst, p.PayloadLen)
	case p.IP != nil:
		return fmt.Sprintf("IP %s->%s proto=%d len=%d", p.IP.Src, p.IP.Dst, p.IP.Protocol, p.PayloadLen)
	default:
		return fmt.Sprintf("ETH %s->%s type=0x%04x len=%d", p.Eth.Src, p.Eth.Dst, p.Eth.EtherType, p.PayloadLen)
	}
}

// NewPause builds a PFC pause frame pausing the priorities whose bit is
// set in classEnable for the given quanta (same value for all enabled
// classes; zero resumes).
func NewPause(src MAC, classEnable uint8, quanta uint16) *Packet {
	pf := &PFCPause{ClassEnable: classEnable}
	for i := 0; i < 8; i++ {
		if classEnable&(1<<uint(i)) != 0 {
			pf.Quanta[i] = quanta
		}
	}
	return &Packet{
		Eth:   Ethernet{Dst: PFCDestination, Src: src, EtherType: EtherTypeMACControl},
		Pause: pf,
	}
}
