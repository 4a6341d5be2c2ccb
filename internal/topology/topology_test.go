package topology

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rocesim/internal/fabric"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/transport"
)

func TestRackBuild(t *testing.T) {
	k := sim.NewKernel(1)
	n, err := Build(k, RackSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Tors) != 1 || len(n.Leafs) != 0 || len(n.Spines) != 0 || len(n.Servers) != 4 {
		t.Fatalf("rack shape: %d/%d/%d/%d", len(n.Tors), len(n.Leafs), len(n.Spines), len(n.Servers))
	}
	qa, _ := n.QPPair(n.Server(0, 0, 0), n.Server(0, 0, 1), nil)
	done := false
	qa.Post(transport.OpSend, 1<<20, func(_, _ simtime.Time) { done = true })
	k.RunUntil(simtime.Time(5 * simtime.Millisecond))
	if !done {
		t.Fatal("intra-rack transfer failed")
	}
}

func TestFig8Build(t *testing.T) {
	k := sim.NewKernel(2)
	n, err := Build(k, Fig8Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Tors) != 2 || len(n.Leafs) != 4 || len(n.Servers) != 48 {
		t.Fatalf("fig8 shape: %d tors %d leafs %d servers", len(n.Tors), len(n.Leafs), len(n.Servers))
	}
	// Cross-ToR transfer through a leaf.
	a, b := n.Server(0, 0, 0), n.Server(0, 1, 0)
	qa, _ := n.QPPair(a, b, nil)
	done := false
	qa.Post(transport.OpSend, 1<<20, func(_, _ simtime.Time) { done = true })
	k.RunUntil(simtime.Time(5 * simtime.Millisecond))
	if !done {
		t.Fatal("cross-ToR transfer failed")
	}
	for _, sw := range n.Switches() {
		if sw.C.NoRouteDrops.Value() != 0 || sw.C.ARPMissDrops.Value() != 0 {
			t.Fatalf("%s: route/arp drops %d/%d", sw.Name(), sw.C.NoRouteDrops.Value(), sw.C.ARPMissDrops.Value())
		}
	}
}

func TestFig7ScaledBuild(t *testing.T) {
	// A scaled-down Figure 7 fabric: full switching structure, 2
	// servers per ToR.
	k := sim.NewKernel(3)
	n, err := Build(k, Fig7Spec(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Tors) != 48 || len(n.Leafs) != 8 || len(n.Spines) != 64 {
		t.Fatalf("fig7 shape: %d/%d/%d", len(n.Tors), len(n.Leafs), len(n.Spines))
	}
	// 2 podsets × 4 leafs × 16 spine uplinks = 128 bottleneck links.
	if len(n.LeafSpineLinks) != 128 {
		t.Fatalf("leaf-spine links %d, want 128", len(n.LeafSpineLinks))
	}
	// Cross-podset transfer: ToR 3 podset 0 → ToR 3 podset 1.
	a, b := n.Server(0, 3, 0), n.Server(1, 3, 1)
	qa, _ := n.QPPair(a, b, nil)
	done := false
	qa.Post(transport.OpSend, 1<<20, func(_, _ simtime.Time) { done = true })
	k.RunUntil(simtime.Time(10 * simtime.Millisecond))
	if !done {
		t.Fatal("cross-podset transfer failed")
	}
	// Path TTL: server(64) -tor-> 63 -leaf-> 62 -spine-> 61 -leaf-> 60 -tor-> 59.
	// Verified indirectly: no TTL drops.
	for _, sw := range n.Switches() {
		if sw.C.TTLDrops.Value() != 0 || sw.C.NoRouteDrops.Value() != 0 {
			t.Fatalf("%s: ttl/route drops", sw.Name())
		}
	}
}

func TestECMPSpreadsQPsAcrossSpinePaths(t *testing.T) {
	k := sim.NewKernel(4)
	n, err := Build(k, Fig7Spec(1))
	if err != nil {
		t.Fatal(err)
	}
	a, b := n.Server(0, 0, 0), n.Server(1, 0, 0)
	// Many QPs between one server pair: different source ports must
	// spread over multiple leaf-spine links.
	for i := 0; i < 32; i++ {
		qa, _ := n.QPPair(a, b, nil)
		qa.Post(transport.OpSend, 64<<10, nil)
	}
	k.RunUntil(simtime.Time(10 * simtime.Millisecond))
	used := 0
	for _, l := range n.LeafSpineLinks {
		if l.Delivered[0] > 0 || l.Delivered[1] > 0 {
			used++
		}
	}
	if used < 8 {
		t.Fatalf("32 QPs used only %d leaf-spine links; ECMP not spreading", used)
	}
}

func TestInvalidSpecs(t *testing.T) {
	k := sim.NewKernel(5)
	if _, err := Build(k, Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	bad := Fig7Spec(1)
	bad.Spines = 63 // not divisible by 4 leafs
	if _, err := Build(k, bad); err == nil {
		t.Fatal("indivisible spine count accepted")
	}
	// Addresses give podset, ToR and leaf indexes one byte each and the
	// server host number one byte: one past each limit must be refused,
	// naming the limit, rather than wrap onto other devices' addresses.
	for _, c := range []struct {
		name  string
		limit int
		set   func(s *Spec, n int)
	}{
		{"podsets", 256, func(s *Spec, n int) { s.Podsets = n }},
		{"ToRs per podset", 256, func(s *Spec, n int) { s.TorsPerPod = n }},
		{"leafs per podset", 256, func(s *Spec, n int) { s.LeafsPerPod = n }},
		{"servers per ToR", 255, func(s *Spec, n int) { s.ServersPerTor = n }},
	} {
		spec := Spec{Podsets: 1, TorsPerPod: 1, ServersPerTor: 1}
		c.set(&spec, c.limit)
		if _, err := Build(sim.NewKernel(5), spec); err != nil {
			t.Fatalf("%d %s refused: %v", c.limit, c.name, err)
		}
		c.set(&spec, c.limit+1)
		_, err := Build(sim.NewKernel(5), spec)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%s exceeds the addressing limit of %d", c.name, c.limit)) {
			t.Fatalf("%d %s: error %v, want one naming the limit of %d", c.limit+1, c.name, err, c.limit)
		}
	}
}

func TestServerAddressing(t *testing.T) {
	k := sim.NewKernel(6)
	n, err := Build(k, Fig7Spec(2))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range n.Servers {
		ip := s.IP().String()
		if seen[ip] {
			t.Fatalf("duplicate IP %s", ip)
		}
		seen[ip] = true
	}
	s := n.Server(1, 3, 1)
	if s.IP() != serverIP(1, 3, 1) {
		t.Fatalf("addressing: %v", s.IP())
	}
	if s.GwMAC() != n.Tor(1, 3).MAC() {
		t.Fatal("gateway MAC mismatch")
	}
}

func TestPropagationDelaysApplied(t *testing.T) {
	// Spine cables are 300m: one-way 1.5us. A cross-podset RTT must be
	// at least 2*(2 spine hops)*1.5us = 6us.
	k := sim.NewKernel(7)
	n, err := Build(k, Fig7Spec(1))
	if err != nil {
		t.Fatal(err)
	}
	a, b := n.Server(0, 0, 0), n.Server(1, 0, 0)
	qa, _ := n.QPPair(a, b, nil)
	var rtt simtime.Duration
	start := k.Now()
	qa.Post(transport.OpSend, 64, func(_, done simtime.Time) { rtt = done.Sub(start) })
	k.RunUntil(simtime.Time(1 * simtime.Millisecond))
	if rtt == 0 {
		t.Fatal("no completion")
	}
	if rtt < 6*simtime.Microsecond {
		t.Fatalf("RTT %v too small for 300m spine cables", rtt)
	}
}

func TestBDPBytes(t *testing.T) {
	const frame = 1086 // full-MTU RoCE segment on the wire

	// Degenerate inputs.
	if got := RackSpec(2).BDPBytes(0); got != 0 {
		t.Fatalf("BDPBytes(0)=%d", got)
	}

	rack := RackSpec(2).BDPBytes(frame)
	fig8 := Fig8Spec().BDPBytes(frame)
	fig7 := Fig7Spec(8).BDPBytes(frame)
	// Deeper fabrics hold strictly more in flight: more hops mean more
	// serialization and longer cables.
	if !(rack < fig8 && fig8 < fig7) {
		t.Fatalf("BDP ordering: rack=%d fig8=%d fig7=%d", rack, fig8, fig7)
	}
	if rack < 2*frame {
		t.Fatalf("rack BDP %d below the two-frame floor", rack)
	}

	// Closed form for the rack: RTT = 2 × (2 propagation + 2
	// serialization), BDP = rate × RTT.
	spec := RackSpec(2)
	oneWay := 2*simtime.PropagationDelay(spec.ServerCableM) +
		2*spec.LinkRate.Transmission(frame)
	want := int(spec.LinkRate.BytesIn(2 * oneWay))
	if want < 2*frame {
		want = 2 * frame
	}
	if rack != want {
		t.Fatalf("rack BDP=%d want %d", rack, want)
	}

	// The floor: zero-length cables still leave two frames in flight.
	z := RackSpec(2)
	z.ServerCableM = 0
	if got := z.BDPBytes(frame); got < 2*frame {
		t.Fatalf("floor violated: %d", got)
	}
}

// TestFleetRoutesShared builds Fig 7 fleets of 2 and 6 podsets, one
// server per ToR. Every switch of a role must read its routes through
// the role's single base and hold only what differs: its local /24 on a
// ToR, its podset's ToR /24s on a leaf, nothing on a spine. The route
// entries held, own routes plus each distinct base once, must then grow
// linearly in ToRs. After one leaf–spine cable goes down and Reconverge
// runs, a switch must have copied its base exactly when its live groups
// changed: here every change is to a route that came from a base.
func TestFleetRoutesShared(t *testing.T) {
	entriesPerTor := map[int]float64{}
	for _, podsets := range []int{2, 6} {
		spec := Fig7Spec(1)
		spec.Podsets = podsets
		n, err := Build(sim.NewKernel(7), spec)
		if err != nil {
			t.Fatal(err)
		}
		entries := 0
		for _, role := range []struct {
			name string
			sws  []*fabric.Switch
			own  int
		}{{"tor", n.Tors, 1}, {"leaf", n.Leafs, spec.TorsPerPod}, {"spine", n.Spines, 0}} {
			base, _ := role.sws[0].RouteState()
			if base == nil {
				t.Fatalf("%d podsets: %s %s has no route base", podsets, role.name, role.sws[0].Name())
			}
			entries += base.Len()
			for _, sw := range role.sws {
				b, own := sw.RouteState()
				if b != base || own != role.own {
					t.Fatalf("%d podsets: %s holds %d own routes over base %p, want %d over the %s base %p",
						podsets, sw.Name(), own, b, role.own, role.name, base)
				}
				entries += own
			}
		}
		entriesPerTor[podsets] = float64(entries) / float64(len(n.Tors))

		// Destinations covering every route: each ToR's /24, and per
		// podset an address in no ToR's /24 (a spine's /16, otherwise the
		// default).
		var dsts []packet.Addr
		for p := 0; p < podsets; p++ {
			for tr := 0; tr < spec.TorsPerPod; tr++ {
				dsts = append(dsts, serverIP(p, tr, 0))
			}
			dsts = append(dsts, packet.IPv4Addr(10, byte(p), 200, 1))
		}
		groups := func() map[string][][]int {
			out := map[string][][]int{}
			for _, sw := range n.Switches() {
				for _, d := range dsts {
					r, _ := sw.LookupRoute(d)
					out[sw.Name()] = append(out[sw.Name()], slices.Clone(r.Ports))
				}
			}
			return out
		}
		before := groups()
		n.LeafSpineLinks[5].SetDown(true)
		n.Reconverge()
		after := groups()
		changed := 0
		for _, sw := range n.Switches() {
			moved := !slices.EqualFunc(before[sw.Name()], after[sw.Name()], slices.Equal[[]int])
			if b, _ := sw.RouteState(); (b == nil) != moved {
				t.Fatalf("%d podsets: %s live groups changed=%v, but base copied=%v", podsets, sw.Name(), moved, b == nil)
			}
			if moved {
				changed++
			}
		}
		// The leaf and spine at the cable's ends, and the same-numbered
		// leaf of every other podset, which withdraws that spine for the
		// cut-off podset's ToRs.
		if changed != podsets+1 {
			t.Fatalf("%d podsets: %d switches changed live groups, want %d", podsets, changed, podsets+1)
		}
	}
	if entriesPerTor[6] > entriesPerTor[2] {
		t.Fatalf("route entries per ToR grew from %.2f at 2 podsets to %.2f at 6", entriesPerTor[2], entriesPerTor[6])
	}
}
