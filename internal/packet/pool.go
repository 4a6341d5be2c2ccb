package packet

// Pool recycles packets and their header storage across hops. A frame
// travels nic → link → fabric → link → nic touching one allocation-free
// Get at the sender and one Put at its death point (delivery to a queue
// pair, a drop, an FCS error); in between, every layer passes the same
// pointer. Each pooled packet owns a box of inline header structs, so
// attaching an IP/UDP/BTH/... layer repoints into the box instead of
// allocating; a cold Get allocates the packet and its box as one object.
//
// The pool is single-threaded like the simulator itself. Recycling is
// veto-able: when Retain reports true (a trace subscriber that keeps
// packet pointers is attached), Put becomes a no-op and packets fall to
// the garbage collector exactly as they did before pooling existed —
// observability never sees a recycled frame.
type Pool struct {
	free []*Packet

	// Retain, when non-nil and returning true, disables recycling.
	Retain func() bool

	// Gets counts successful reuses, News cold allocations, Puts
	// accepted releases — the pool's hit-rate instrumentation.
	Gets, News, Puts uint64
}

// box is the inline header storage owned by a pooled packet.
type box struct {
	ip     IPv4
	udp    UDP
	bth    BTH
	reth   RETH
	aeth   AETH
	sack   SACK
	vlan   VLANTag
	pause  PFCPause
	pooled bool // currently sitting in the free-list (double-put guard)
}

// pooled is a pool packet and its header box, allocated together.
type pooled struct {
	p Packet
	b box
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{}
}

// Get returns a zeroed packet backed by pooled header storage. The
// caller attaches the layers it needs (AttachIP, AttachBTH, ...).
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.box.pooled = false
		pl.Gets++
		return p
	}
	pl.News++
	c := &pooled{}
	c.p.box = &c.b
	return &c.p
}

// Put returns a dead packet to the pool. Packets not drawn from a pool
// (box-less clones, test fixtures) are ignored, as is everything while
// Retain vetoes recycling. Putting the same packet twice without an
// intervening Get panics: aliasing a recycled frame corrupts the
// simulation silently, which is far worse than crashing.
func (pl *Pool) Put(p *Packet) {
	if p == nil || p.box == nil {
		return
	}
	if p.box.pooled {
		panic("packet: double release to pool")
	}
	if pl.Retain != nil && pl.Retain() {
		return
	}
	b := p.box
	*p = Packet{box: b}
	b.pooled = true
	pl.free = append(pl.free, p)
	pl.Puts++
}

// NewPause builds a PFC pause frame from the pool; see NewPause for the
// frame semantics.
func (pl *Pool) NewPause(src MAC, classEnable uint8, quanta uint16) *Packet {
	p := pl.Get()
	p.Eth = Ethernet{Dst: PFCDestination, Src: src, EtherType: EtherTypeMACControl}
	pf := p.AttachPause()
	pf.ClassEnable = classEnable
	for i := 0; i < 8; i++ {
		if classEnable&(1<<uint(i)) != 0 {
			pf.Quanta[i] = quanta
		}
	}
	return p
}

// Attach helpers: each zeroes and attaches one header layer, drawing
// from the packet's box when pooled and allocating otherwise, so
// construction code works identically for pooled and plain packets.

// AttachIP attaches a zeroed IPv4 header and returns it.
func (p *Packet) AttachIP() *IPv4 {
	if p.box != nil {
		p.box.ip = IPv4{}
		p.IP = &p.box.ip
	} else {
		p.IP = &IPv4{}
	}
	return p.IP
}

// AttachUDP attaches a zeroed UDP header and returns it.
func (p *Packet) AttachUDP() *UDP {
	if p.box != nil {
		p.box.udp = UDP{}
		p.UDPH = &p.box.udp
	} else {
		p.UDPH = &UDP{}
	}
	return p.UDPH
}

// AttachBTH attaches a zeroed BTH and returns it.
func (p *Packet) AttachBTH() *BTH {
	if p.box != nil {
		p.box.bth = BTH{}
		p.BTH = &p.box.bth
	} else {
		p.BTH = &BTH{}
	}
	return p.BTH
}

// AttachRETH attaches a zeroed RETH and returns it.
func (p *Packet) AttachRETH() *RETH {
	if p.box != nil {
		p.box.reth = RETH{}
		p.RETH = &p.box.reth
	} else {
		p.RETH = &RETH{}
	}
	return p.RETH
}

// AttachAETH attaches a zeroed AETH and returns it.
func (p *Packet) AttachAETH() *AETH {
	if p.box != nil {
		p.box.aeth = AETH{}
		p.AETH = &p.box.aeth
	} else {
		p.AETH = &AETH{}
	}
	return p.AETH
}

// AttachSACK attaches a zeroed SACK extension and returns it.
func (p *Packet) AttachSACK() *SACK {
	if p.box != nil {
		p.box.sack = SACK{}
		p.SACK = &p.box.sack
	} else {
		p.SACK = &SACK{}
	}
	return p.SACK
}

// AttachVLAN attaches a zeroed VLAN tag and returns it.
func (p *Packet) AttachVLAN() *VLANTag {
	if p.box != nil {
		p.box.vlan = VLANTag{}
		p.VLAN = &p.box.vlan
	} else {
		p.VLAN = &VLANTag{}
	}
	return p.VLAN
}

// AttachPause attaches a zeroed PFC pause header and returns it.
func (p *Packet) AttachPause() *PFCPause {
	if p.box != nil {
		p.box.pause = PFCPause{}
		p.Pause = &p.box.pause
	} else {
		p.Pause = &PFCPause{}
	}
	return p.Pause
}

// Clone deep-copies the packet and its mutable layers. The clone is
// box-less (never pooled): flood replication hands copies to multiple
// egress queues with independent lifetimes, so tying them to the pool
// would alias recycled storage.
func (p *Packet) Clone() *Packet {
	q := *p
	q.box = nil
	if p.VLAN != nil {
		v := *p.VLAN
		q.VLAN = &v
	}
	if p.IP != nil {
		ip := *p.IP
		q.IP = &ip
	}
	if p.UDPH != nil {
		u := *p.UDPH
		q.UDPH = &u
	}
	if p.BTH != nil {
		b := *p.BTH
		q.BTH = &b
	}
	if p.RETH != nil {
		r := *p.RETH
		q.RETH = &r
	}
	if p.AETH != nil {
		a := *p.AETH
		q.AETH = &a
	}
	if p.SACK != nil {
		s := *p.SACK
		q.SACK = &s
	}
	if p.Pause != nil {
		pa := *p.Pause
		q.Pause = &pa
	}
	return &q
}
