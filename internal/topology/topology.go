// Package topology builds the paper's data-center fabrics: multi-layer
// Clos networks of ToR, Leaf and Spine switches with up-down routing and
// ECMP, including the exact configurations evaluated in Section 5 — the
// two-podset production fabric of Figure 7 (4 Leafs, 24 ToRs and 576
// servers per podset, 64 Spines) and the two-ToR testbed of Figure 8
// (6:1 oversubscription through 4 Leafs).
package topology

import (
	"fmt"

	"rocesim/internal/fabric"
	"rocesim/internal/link"
	"rocesim/internal/nic"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/transport"
)

// Spec describes a Clos fabric. Spines may be zero for two-tier
// (ToR-Leaf) topologies. Addresses give Podsets, TorsPerPod and
// LeafsPerPod one byte each, so each is at most 256, and ServersPerTor
// is at most 255.
type Spec struct {
	Name          string
	Podsets       int
	LeafsPerPod   int
	TorsPerPod    int
	ServersPerTor int
	// Spines is the total spine count; it must be divisible by
	// LeafsPerPod (each leaf owns Spines/LeafsPerPod uplinks — the
	// standard plane-aligned Clos wiring).
	Spines   int
	LinkRate simtime.Rate
	// Cable lengths drive propagation delay (the paper: ~2 m server
	// cables, 10–20 m ToR–Leaf, 200–300 m Leaf–Spine).
	ServerCableM float64
	LeafCableM   float64
	SpineCableM  float64
	// SwitchConfig customizes per-switch configuration; level is
	// "tor"/"leaf"/"spine". Nil uses fabric.DefaultConfig.
	SwitchConfig func(level, name string, ports int) fabric.Config
	// NICConfig customizes per-server NIC configuration. Nil uses
	// nic.DefaultConfig.
	NICConfig func(name string, mac packet.MAC, ip packet.Addr) nic.Config
}

// BDPBytes returns the bandwidth-delay product of the spec's longest
// server-to-server path: the bytes one line-rate flow keeps in flight
// across a full RTT. frameBytes is the wire size of a full-MTU segment,
// charged once per hop for store-and-forward serialization. The IRN
// transport caps its flight at this to stay self-clocked without PFC
// (one BDP in flight saturates the path; more only builds queues).
// The floor of two frames keeps degenerate specs (zero-length cables)
// from stalling the ACK clock.
func (s Spec) BDPBytes(frameBytes int) int {
	rate := s.LinkRate
	if rate <= 0 {
		rate = 40 * simtime.Gbps
	}
	if frameBytes <= 0 {
		return 0
	}
	var oneWay simtime.Duration
	hop := func(meters float64) {
		oneWay += simtime.PropagationDelay(meters) + rate.Transmission(frameBytes)
	}
	hop(s.ServerCableM) // server -> ToR
	if s.LeafsPerPod > 0 {
		hop(s.LeafCableM) // ToR -> Leaf
		if s.Spines > 0 {
			hop(s.SpineCableM) // Leaf -> Spine
			hop(s.SpineCableM) // Spine -> Leaf
		}
		hop(s.LeafCableM) // Leaf -> ToR
	}
	hop(s.ServerCableM) // ToR -> server
	bdp := int(rate.BytesIn(2 * oneWay))
	if min := 2 * frameBytes; bdp < min {
		bdp = min
	}
	return bdp
}

// Fig7Spec returns the Section 5.4 throughput fabric: two podsets of
// 4 Leafs × 24 ToRs × 24 servers plus 64 Spines, all 40GbE.
// serversPerTor may be reduced to scale the experiment down; the paper
// uses only 8 servers per ToR in the experiment anyway.
func Fig7Spec(serversPerTor int) Spec {
	return Spec{
		Name:          "fig7",
		Podsets:       2,
		LeafsPerPod:   4,
		TorsPerPod:    24,
		ServersPerTor: serversPerTor,
		Spines:        64,
		LinkRate:      40 * simtime.Gbps,
		ServerCableM:  2,
		LeafCableM:    20,
		SpineCableM:   300,
	}
}

// Fig8Spec returns the Section 5.4 latency testbed: two ToRs with 24
// servers each, 4 uplinks per ToR to 4 Leafs (6:1 oversubscription), no
// spine layer.
func Fig8Spec() Spec {
	return Spec{
		Name:          "fig8",
		Podsets:       1,
		LeafsPerPod:   4,
		TorsPerPod:    2,
		ServersPerTor: 24,
		LinkRate:      40 * simtime.Gbps,
		ServerCableM:  2,
		LeafCableM:    20,
	}
}

// RackSpec returns a single ToR with n servers — the lab-bench topology
// of Section 4.1.
func RackSpec(n int) Spec {
	return Spec{
		Name:          "rack",
		Podsets:       1,
		LeafsPerPod:   0,
		TorsPerPod:    1,
		ServersPerTor: n,
		LinkRate:      40 * simtime.Gbps,
		ServerCableM:  2,
	}
}

// Server is one end host.
type Server struct {
	NIC     *nic.NIC
	Tor     *fabric.Switch
	TorPort int
	Podset  int
	TorIdx  int
	Idx     int
}

// IP returns the server's address.
func (s *Server) IP() packet.Addr { return s.NIC.IP() }

// GwMAC returns the first-hop (ToR) MAC.
func (s *Server) GwMAC() packet.MAC { return s.Tor.MAC() }

// Network is a built fabric.
type Network struct {
	K       *sim.Kernel
	Spec    Spec
	Tors    []*fabric.Switch // podset-major order
	Leafs   []*fabric.Switch // podset-major order
	Spines  []*fabric.Switch
	Servers []*Server

	// LeafSpineLinks are the bottleneck links of Figure 7, for
	// utilization measurement: one entry per (leaf, spine) pair.
	LeafSpineLinks []*link.Link

	// Links records every cable as (device, port) ↔ (device, port) — the
	// wiring map observability tools (the PFC pause-propagation analyzer)
	// need to resolve which neighbour a pause emitted on a port lands on.
	Links []LinkRec

	// adj maps switch name → port → the switch on the other end of that
	// cable (nil for server-facing ports), for route reconvergence.
	adj map[string]map[int]*fabric.Switch

	reconvergePending bool
	qpn               uint32
}

// LinkRec is one cable: port APort of device A connects to port BPort of
// device B. NICs are single-ported (port 0). L is the cable itself, so
// tooling (the fault injector pulling cables, pcap taps) can reach the
// wire by its endpoint names.
type LinkRec struct {
	A     string
	APort int
	B     string
	BPort int
	L     *link.Link
}

// Switches returns every switch (for monitoring and deadlock scans).
func (n *Network) Switches() []*fabric.Switch {
	out := append([]*fabric.Switch(nil), n.Tors...)
	out = append(out, n.Leafs...)
	return append(out, n.Spines...)
}

// Tor returns the ToR t of podset p.
func (n *Network) Tor(p, t int) *fabric.Switch { return n.Tors[p*n.Spec.TorsPerPod+t] }

// Server returns server s of ToR t in podset p.
func (n *Network) Server(p, t, s int) *Server {
	idx := (p*n.Spec.TorsPerPod+t)*n.Spec.ServersPerTor + s
	return n.Servers[idx]
}

func serverIP(p, t, s int) packet.Addr { return packet.IPv4Addr(10, byte(p), byte(t), byte(s+1)) }
func torSubnet(p, t int) packet.Addr   { return packet.IPv4Addr(10, byte(p), byte(t), 0) }

// Build wires the fabric.
func Build(k *sim.Kernel, spec Spec) (*Network, error) {
	if spec.Podsets <= 0 || spec.TorsPerPod <= 0 || spec.ServersPerTor <= 0 {
		return nil, fmt.Errorf("topology: empty spec")
	}
	// Addresses and MACs give the podset, ToR and leaf indexes one byte
	// each, and a server's host number (its index plus one) one byte:
	// past these limits devices would wrap onto each other's addresses.
	for _, lim := range []struct {
		what     string
		n, limit int
	}{
		{"podsets", spec.Podsets, 256},
		{"ToRs per podset", spec.TorsPerPod, 256},
		{"leafs per podset", spec.LeafsPerPod, 256},
		{"servers per ToR", spec.ServersPerTor, 255},
	} {
		if lim.n > lim.limit {
			return nil, fmt.Errorf("topology: %d %s exceeds the addressing limit of %d", lim.n, lim.what, lim.limit)
		}
	}
	if spec.Spines > 0 && (spec.LeafsPerPod == 0 || spec.Spines%spec.LeafsPerPod != 0) {
		return nil, fmt.Errorf("topology: %d spines not divisible by %d leafs", spec.Spines, spec.LeafsPerPod)
	}
	if spec.LinkRate <= 0 {
		spec.LinkRate = 40 * simtime.Gbps
	}
	swCfg := spec.SwitchConfig
	if swCfg == nil {
		swCfg = func(level, name string, ports int) fabric.Config {
			return fabric.DefaultConfig(name, ports)
		}
	}
	nicCfg := spec.NICConfig
	if nicCfg == nil {
		nicCfg = func(name string, mac packet.MAC, ip packet.Addr) nic.Config {
			return nic.DefaultConfig(name, mac, ip)
		}
	}
	n := &Network{K: k, Spec: spec}

	// Shard assignment (fixed and deterministic, a pure function of the
	// spec): ToR groups are cut into contiguous blocks of the shard
	// count, servers follow their ToR, each pod's leafs spread across
	// the shards its ToRs occupy, and spines spread evenly. Build called
	// with a plain kernel (or a one-shard group) places everything on k,
	// which is byte-identical to the pre-sharding wiring.
	grp := k.Group()
	nsh := 1
	if grp != nil {
		nsh = grp.N()
	}
	totTors := spec.Podsets * spec.TorsPerPod
	shardOfTor := func(p, t int) int { return (p*spec.TorsPerPod + t) * nsh / totTors }
	shardOfLeaf := func(p, lf int) int {
		if spec.LeafsPerPod == 0 {
			return 0
		}
		return shardOfTor(p, lf*spec.TorsPerPod/spec.LeafsPerPod)
	}
	shardOfSpine := func(sp int) int { return sp * nsh / spec.Spines }
	kf := func(shard int) *sim.Kernel {
		if grp == nil || nsh <= 1 {
			return k
		}
		return grp.Shard(shard)
	}
	// minCross tracks the shortest cable whose ends landed on different
	// shards: the group's conservative lookahead window.
	minCross := simtime.Duration(-1)
	crossCheck := func(l *link.Link) {
		if l.CrossShard() && (minCross < 0 || l.Delay() < minCross) {
			minCross = l.Delay()
		}
	}

	newSwitch := func(kk *sim.Kernel, level, name string, ports int, mac packet.MAC) (*fabric.Switch, error) {
		return fabric.NewSwitch(kk, swCfg(level, name, ports), mac)
	}

	// Create switches.
	for p := 0; p < spec.Podsets; p++ {
		for t := 0; t < spec.TorsPerPod; t++ {
			ports := spec.ServersPerTor + spec.LeafsPerPod
			sw, err := newSwitch(kf(shardOfTor(p, t)), "tor", fmt.Sprintf("tor-%d-%d", p, t), ports,
				packet.MAC{0x02, 0xF0, byte(p), byte(t), 0, 0})
			if err != nil {
				return nil, err
			}
			n.Tors = append(n.Tors, sw)
		}
		for l := 0; l < spec.LeafsPerPod; l++ {
			ports := spec.TorsPerPod
			if spec.Spines > 0 {
				ports += spec.Spines / spec.LeafsPerPod
			}
			sw, err := newSwitch(kf(shardOfLeaf(p, l)), "leaf", fmt.Sprintf("leaf-%d-%d", p, l), ports,
				packet.MAC{0x02, 0xF1, byte(p), byte(l), 0, 0})
			if err != nil {
				return nil, err
			}
			n.Leafs = append(n.Leafs, sw)
		}
	}
	for sp := 0; sp < spec.Spines; sp++ {
		sw, err := newSwitch(kf(shardOfSpine(sp)), "spine", fmt.Sprintf("spine-%d", sp), spec.Podsets,
			packet.MAC{0x02, 0xF2, byte(sp >> 8), byte(sp), 0, 0})
		if err != nil {
			return nil, err
		}
		n.Spines = append(n.Spines, sw)
	}

	// Servers + server links.
	for p := 0; p < spec.Podsets; p++ {
		for t := 0; t < spec.TorsPerPod; t++ {
			tor := n.Tor(p, t)
			for s := 0; s < spec.ServersPerTor; s++ {
				mac := packet.MAC{0x02, 0x00, byte(p), byte(t), 0x01, byte(s + 1)}
				ip := serverIP(p, t, s)
				name := fmt.Sprintf("srv-%d-%d-%d", p, t, s)
				nc := nic.New(tor.Kernel(), nicCfg(name, mac, ip))
				l := link.New(k, spec.LinkRate, simtime.PropagationDelay(spec.ServerCableM))
				tor.AttachLink(s, l, 0, mac, true)
				nc.Attach(l, 1)
				crossCheck(l)
				tor.SetARP(ip, mac)
				tor.LearnMAC(mac, s)
				n.Links = append(n.Links, LinkRec{A: tor.Name(), APort: s, B: name, BPort: 0, L: l})
				n.Servers = append(n.Servers, &Server{
					NIC: nc, Tor: tor, TorPort: s, Podset: p, TorIdx: t, Idx: s,
				})
			}
			tor.AddRoute(fabric.Route{Prefix: torSubnet(p, t), Bits: 24, Local: true})
		}
	}

	// Route bases: every switch of a role numbers its ports alike, so the
	// routes they share live once per role, in a fabric.RouteBase each
	// reads through, and a switch adds only what differs (a ToR its local
	// /24, a leaf its own podset's ToRs).
	//
	// ToRs: a default route with ECMP over all the ToR's leafs (absent on
	// a single-rack topology), plus a /24 per ToR with the same ECMP
	// group. Forwarding is identical — same ports, same hash — but the
	// per-destination entries are what the control plane withdraws next
	// hops from when a path dies (a default route could only be
	// withdrawn for all destinations at once). A ToR's own local /24
	// shadows its entry.
	//
	// Leafs: a default route with ECMP over the leaf's spines, plus
	// withdrawable /24s per ToR; a leaf's single-port routes down to its
	// own podset's ToRs shadow theirs.
	//
	// Spines: each podset's /16 down to its leaf, with withdrawable
	// per-ToR /24s on top: if the leaf loses one ToR, the spine must
	// withdraw only that ToR's prefix, not the podset.
	defaultAndTors := func(ports []int) []fabric.Route {
		rs := []fabric.Route{{Prefix: packet.Addr{}, Bits: 0, Ports: ports}}
		for p := 0; p < spec.Podsets; p++ {
			for t := 0; t < spec.TorsPerPod; t++ {
				rs = append(rs, fabric.Route{Prefix: torSubnet(p, t), Bits: 24, Ports: ports})
			}
		}
		return rs
	}
	if spec.LeafsPerPod > 0 {
		uplinks := make([]int, spec.LeafsPerPod)
		for lf := range uplinks {
			uplinks[lf] = spec.ServersPerTor + lf
		}
		base := fabric.NewRouteBase(defaultAndTors(uplinks))
		for _, tor := range n.Tors {
			tor.SetRouteBase(base)
		}
	}
	if spec.Spines > 0 {
		spinePorts := make([]int, spec.Spines/spec.LeafsPerPod)
		for u := range spinePorts {
			spinePorts[u] = spec.TorsPerPod + u
		}
		base := fabric.NewRouteBase(defaultAndTors(spinePorts))
		for _, leaf := range n.Leafs {
			leaf.SetRouteBase(base)
		}
		var rs []fabric.Route
		for p := 0; p < spec.Podsets; p++ {
			down := []int{p}
			rs = append(rs, fabric.Route{Prefix: packet.IPv4Addr(10, byte(p), 0, 0), Bits: 16, Ports: down})
			for t := 0; t < spec.TorsPerPod; t++ {
				rs = append(rs, fabric.Route{Prefix: torSubnet(p, t), Bits: 24, Ports: down})
			}
		}
		base = fabric.NewRouteBase(rs)
		for _, spine := range n.Spines {
			spine.SetRouteBase(base)
		}
	}

	// ToR–Leaf wiring and intra-podset routing.
	for p := 0; p < spec.Podsets; p++ {
		for t := 0; t < spec.TorsPerPod; t++ {
			tor := n.Tor(p, t)
			for lf := 0; lf < spec.LeafsPerPod; lf++ {
				leaf := n.Leafs[p*spec.LeafsPerPod+lf]
				torPort := spec.ServersPerTor + lf
				leafPort := t
				l := link.New(k, spec.LinkRate, simtime.PropagationDelay(spec.LeafCableM))
				tor.AttachLink(torPort, l, 0, leaf.MAC(), false)
				leaf.AttachLink(leafPort, l, 1, tor.MAC(), false)
				crossCheck(l)
				n.Links = append(n.Links, LinkRec{A: tor.Name(), APort: torPort, B: leaf.Name(), BPort: leafPort, L: l})
				// Leaf routes down to this ToR's subnet.
				leaf.AddRoute(fabric.Route{Prefix: torSubnet(p, t), Bits: 24, Ports: []int{leafPort}})
			}
		}
	}

	// Leaf–Spine wiring.
	if spec.Spines > 0 {
		perLeaf := spec.Spines / spec.LeafsPerPod
		for p := 0; p < spec.Podsets; p++ {
			for lf := 0; lf < spec.LeafsPerPod; lf++ {
				leaf := n.Leafs[p*spec.LeafsPerPod+lf]
				for u := 0; u < perLeaf; u++ {
					spIdx := lf*perLeaf + u
					spine := n.Spines[spIdx]
					leafPort := spec.TorsPerPod + u
					spinePort := p
					l := link.New(k, spec.LinkRate, simtime.PropagationDelay(spec.SpineCableM))
					leaf.AttachLink(leafPort, l, 0, spine.MAC(), false)
					spine.AttachLink(spinePort, l, 1, leaf.MAC(), false)
					crossCheck(l)
					n.Links = append(n.Links, LinkRec{A: leaf.Name(), APort: leafPort, B: spine.Name(), BPort: spinePort, L: l})
					n.LeafSpineLinks = append(n.LeafSpineLinks, l)
				}
			}
		}
	}
	// Adjacency map and carrier hooks: any cable transition (a pulled
	// cable, a rebooting switch dropping all its links) triggers route
	// reconvergence, coalesced per timestamp.
	byName := make(map[string]*fabric.Switch)
	for _, sw := range n.Switches() {
		byName[sw.Name()] = sw
	}
	n.adj = make(map[string]map[int]*fabric.Switch)
	port := func(dev string, p int, peer *fabric.Switch) {
		if byName[dev] == nil {
			return // server side: no routing state
		}
		if n.adj[dev] == nil {
			n.adj[dev] = make(map[int]*fabric.Switch)
		}
		n.adj[dev][p] = peer
	}
	for _, rec := range n.Links {
		port(rec.A, rec.APort, byName[rec.B])
		port(rec.B, rec.BPort, byName[rec.A])
		rec.L.OnCarrier = func(bool) { n.scheduleReconverge() }
	}

	// Announce the wired fabric so late-attaching observers (the fault
	// injector resolving "link:tor-0-0~leaf-0-1" targets) can discover it
	// through the kernel's component registry.
	k.Announce(n)

	if grp != nil && nsh > 1 {
		if minCross > 0 {
			grp.SetLookahead(minCross)
		} else {
			// No cable crosses a shard boundary; the shards never
			// interact and any positive window is conservative.
			grp.SetLookahead(simtime.Millisecond)
		}
	}
	return n, nil
}

// scheduleReconverge coalesces carrier transitions landing at the same
// instant (a switch reboot downs every attached cable at once) into one
// reconvergence pass, run after the current event completes.
func (n *Network) scheduleReconverge() {
	if n.reconvergePending {
		return
	}
	n.reconvergePending = true
	n.K.After(0, func() {
		n.reconvergePending = false
		n.Reconverge()
	})
}

// Reconverge recomputes every switch's live ECMP groups from the static
// routing configuration and current carrier state — the instantaneous
// stand-in for the fabric's BGP withdrawing routes through dead links
// and re-advertising them on link-up. First each switch drops next hops
// whose own cable is dead; then withdrawal propagates: a next hop is
// pruned when the neighbor behind it has no remaining path to the
// destination prefix, iterated to fixpoint so dead ends several hops
// away (a spine whose only downlink into a podset died) withdraw all the
// way back to the sources.
func (n *Network) Reconverge() {
	sws := n.Switches()
	for _, sw := range sws {
		sw := sw
		sw.ResetRoutes(func(port int) bool {
			l := sw.PortLink(port)
			return l != nil && !l.Down
		})
	}
	for changed := true; changed; {
		changed = false
		for _, sw := range sws {
			ports := n.adj[sw.Name()]
			if sw.PruneRoutes(func(prefix packet.Addr, bits, port int) bool {
				// Only per-ToR /24s are withdrawn transitively; shorter
				// prefixes (defaults, podset /16s) aggregate too many
				// destinations to judge by one probe and act as static
				// backstops, pruned by local carrier only.
				if bits != 24 {
					return true
				}
				peer := ports[port]
				if peer == nil {
					return true // server-facing: hosts don't transit
				}
				return peer.RouteUsable(prefix)
			}) {
				changed = true
			}
		}
	}
}

// QPPair creates a connected queue pair between two servers; mod (may be
// nil) adjusts both configurations before creation. The returned QPs are
// a requester on each side (RC QPs are bidirectional).
func (n *Network) QPPair(a, b *Server, mod func(c *transport.Config)) (qa, qb *transport.QP) {
	n.qpn += 2
	qpnA, qpnB := n.qpn, n.qpn+1
	cfgA := transport.Config{
		QPN: qpnA, PeerQPN: qpnB,
		DstIP: b.IP(), GwMAC: a.GwMAC(),
		Priority: 3, MTU: 1024, Recovery: transport.GoBackN,
	}
	cfgB := cfgA
	cfgB.QPN, cfgB.PeerQPN = qpnB, qpnA
	cfgB.DstIP = a.IP()
	cfgB.GwMAC = b.GwMAC()
	if mod != nil {
		mod(&cfgA)
		mod(&cfgB)
	}
	return a.NIC.CreateQP(cfgA), b.NIC.CreateQP(cfgB)
}
