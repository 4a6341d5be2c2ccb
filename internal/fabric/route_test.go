package fabric

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rocesim/internal/packet"
	"rocesim/internal/sim"
)

// linearLookup is the longest-prefix match by plain scan of a settled
// table: the first matching route in length order.
func linearLookup(t *routeTable, a packet.Addr) *Route {
	t.settle()
	for i := range t.routes {
		if t.routes[i].matches(a) {
			return &t.routes[i]
		}
	}
	return nil
}

func TestRouteAddCanonicalisesPrefix(t *testing.T) {
	var rt routeTable
	rt.add(Route{Prefix: packet.IPv4Addr(10, 0, 1, 7), Bits: 24, Ports: []int{1}})
	rt.add(Route{Prefix: packet.IPv4Addr(10, 0, 1, 0), Bits: 24, Ports: []int{2}})
	rt.add(Route{Prefix: packet.IPv4Addr(10, 0, 0, 0), Bits: 8, Ports: []int{9}})
	rt.settle()
	if len(rt.routes) != 2 {
		t.Fatalf("%d routes, want 2: host bits must not make a second /24", len(rt.routes))
	}
	if got := rt.routes[0].Prefix; got != packet.IPv4Addr(10, 0, 1, 0) {
		t.Fatalf("stored prefix %v, want 10.0.1.0", got)
	}
	for _, a := range []packet.Addr{
		packet.IPv4Addr(10, 0, 1, 7), packet.IPv4Addr(10, 0, 1, 200), packet.IPv4Addr(10, 3, 0, 1),
	} {
		r, want := rt.lookup(a), linearLookup(&rt, a)
		if r != want {
			t.Fatalf("lookup(%v) = %+v, linear scan %+v", a, r, want)
		}
	}
	if r := rt.lookup(packet.IPv4Addr(10, 0, 1, 9)); !slices.Equal(r.Ports, []int{2}) {
		t.Fatalf("lookup got ports %v, want the replacement's [2]", r.Ports)
	}
}

// refTable is the insert-and-sort table the batched one replaces: every
// add scans for a duplicate, re-sorts the whole slice and rebuilds the
// /24 index. Prefixes are canonicalised as in routeTable.add.
type refTable struct {
	routes  []Route
	by24    map[uint32]int
	maxBits int
}

func (t *refTable) add(r Route) {
	r.Prefix = packet.AddrFromUint32(r.Prefix.Uint32() & prefixMask(r.Bits))
	r.static = append([]int(nil), r.Ports...)
	for i := range t.routes {
		if t.routes[i].Bits == r.Bits && t.routes[i].Prefix == r.Prefix {
			t.routes[i] = r
			return
		}
	}
	t.routes = append(t.routes, r)
	sort.SliceStable(t.routes, func(i, j int) bool { return t.routes[i].Bits > t.routes[j].Bits })
	t.by24 = make(map[uint32]int, len(t.routes))
	t.maxBits = 0
	for i := range t.routes {
		if t.routes[i].Bits == 24 {
			t.by24[t.routes[i].Prefix.Uint32()>>8] = i
		}
		t.maxBits = max(t.maxBits, t.routes[i].Bits)
	}
}

func (t *refTable) lookup(a packet.Addr) *Route {
	if t.maxBits <= 24 {
		if i, ok := t.by24[a.Uint32()>>8]; ok {
			return &t.routes[i]
		}
	}
	for i := range t.routes {
		if t.routes[i].matches(a) {
			return &t.routes[i]
		}
	}
	return nil
}

func sameRoute(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Prefix == b.Prefix && a.Bits == b.Bits && a.Local == b.Local &&
		slices.Equal(a.Ports, b.Ports) && slices.Equal(a.static, b.static)
}

func TestRouteTableMatchesInsertAndSort(t *testing.T) {
	lengths := []int{0, 8, 16, 24, 32}
	// A small address pool makes replacements and overlapping prefixes
	// common.
	addr := func(rng *rand.Rand) packet.Addr {
		return packet.IPv4Addr(10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(3)))
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got routeTable
		var ref refTable
		// Some tables never see a /32, so the /24 fast path stays live.
		maxLen := len(lengths)
		if seed%2 == 0 {
			maxLen--
		}
		for op := 0; op < 120; op++ {
			if rng.Intn(3) > 0 {
				r := Route{Prefix: addr(rng), Bits: lengths[rng.Intn(maxLen)], Ports: []int{op}}
				if rng.Intn(8) == 0 {
					r.Ports, r.Local = nil, true
				}
				got.add(r)
				ref.add(r)
				continue
			}
			a := addr(rng)
			if g, w := got.lookup(a), ref.lookup(a); !sameRoute(g, w) {
				t.Fatalf("seed %d op %d: lookup(%v) = %+v, want %+v", seed, op, a, g, w)
			}
		}
		got.settle()
		if len(got.routes) != len(ref.routes) {
			t.Fatalf("seed %d: %d routes, want %d", seed, len(got.routes), len(ref.routes))
		}
		for i := range ref.routes {
			if !sameRoute(&got.routes[i], &ref.routes[i]) {
				t.Fatalf("seed %d: routes[%d] = %+v, want %+v", seed, i, got.routes[i], ref.routes[i])
			}
		}
	}
}

// fleetToRRoutes returns the routes a ToR of a 35-podset × 24-ToR fleet
// forwards by, as one private table: its local /24, the default, and a
// /24 per other ToR, 841 in all.
func fleetToRRoutes() []Route {
	uplinks := []int{24, 25, 26, 27}
	rs := []Route{{Prefix: packet.IPv4Addr(10, 0, 0, 0), Bits: 24, Local: true},
		{Bits: 0, Ports: uplinks}}
	for p := 0; p < 35; p++ {
		for tor := 0; tor < 24; tor++ {
			if p == 0 && tor == 0 {
				continue
			}
			rs = append(rs, Route{Prefix: packet.IPv4Addr(10, byte(p), byte(tor), 0), Bits: 24, Ports: uplinks})
		}
	}
	return rs
}

func TestRouteTableBuildAllocsLinear(t *testing.T) {
	rs := fleetToRRoutes()
	dst := packet.IPv4Addr(10, 34, 22, 9)
	build := func(rs []Route) float64 {
		return testing.AllocsPerRun(5, func() {
			var rt routeTable
			for _, r := range rs {
				rt.add(r)
			}
			if rt.lookup(dst) == nil {
				t.Fatal("no route")
			}
		})
	}
	bare := slices.Clone(rs)
	for i := range bare {
		bare[i].Ports = nil
	}
	allocs, base := build(rs), build(bare)
	// Without port sets, only the slice and the index allocate, growing
	// geometrically; a map rebuilt per add would cost several
	// allocations per route.
	if limit := 0.1 * float64(len(rs)); base > limit {
		t.Fatalf("building a %d-route table took %.0f allocations, want <= %.0f", len(rs), base, limit)
	}
	// The default and the 839 remote-ToR routes all go out the same
	// uplinks, added in one run: the table keeps one copy of that set.
	if allocs > base+1 {
		t.Fatalf("port sets cost %.0f allocations for %d routes over one ECMP group, want 1",
			allocs-base, len(rs)-1)
	}
}

// TestRoutesAddedFromOneSliceStayIndependent adds two routes from one
// caller slice and withdraws a next hop for one prefix only: the other
// route's live group, both static sets and the caller's slice must be
// untouched, and a reset restores both groups in their static order.
func TestRoutesAddedFromOneSliceStayIndependent(t *testing.T) {
	sw, err := NewSwitch(sim.NewKernel(1), DefaultConfig("sw", 4), swMAC(0))
	if err != nil {
		t.Fatal(err)
	}
	ports := []int{1, 2, 3}
	a, b := hostIP(1, 0), hostIP(2, 0)
	sw.AddRoute(Route{Prefix: a, Bits: 24, Ports: ports})
	sw.AddRoute(Route{Prefix: b, Bits: 24, Ports: ports})
	check := func(stage string, wantA, wantB []int) {
		t.Helper()
		ra, rb := sw.routes.lookup(hostIP(1, 1)), sw.routes.lookup(hostIP(2, 1))
		if !slices.Equal(ra.Ports, wantA) || !slices.Equal(rb.Ports, wantB) {
			t.Fatalf("%s: live groups %v and %v, want %v and %v", stage, ra.Ports, rb.Ports, wantA, wantB)
		}
		for _, r := range []*Route{ra, rb} {
			if !slices.Equal(r.static, []int{1, 2, 3}) {
				t.Fatalf("%s: static set of %v became %v", stage, r.Prefix, r.static)
			}
		}
		if !slices.Equal(ports, []int{1, 2, 3}) {
			t.Fatalf("%s: the caller's slice became %v", stage, ports)
		}
	}
	if !sw.PruneRoutes(func(prefix packet.Addr, _, port int) bool { return prefix != a || port != 2 }) {
		t.Fatal("pruning a live next hop reported no change")
	}
	check("prune port 2 for a", []int{1, 3}, []int{1, 2, 3})
	sw.ResetRoutes(func(port int) bool { return port != 1 })
	check("reset with port 1 down", []int{2, 3}, []int{2, 3})
	sw.ResetRoutes(func(int) bool { return true })
	check("reset with every port up", []int{1, 2, 3}, []int{1, 2, 3})
}
