package fabric

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"rocesim/internal/packet"
	"rocesim/internal/sim"
)

// fuzzPorts is the port count of FuzzRouteTable's switches, and
// fuzzMaxCalls caps one input's decoded calls, since a check call looks
// up every address of the pool on both switches.
const (
	fuzzPorts    = 6
	fuzzMaxCalls = 512
)

// fuzzAddr decodes one byte into one of 36 addresses,
// 10.{0..2}.{0..3}.{0..2}: a pool small enough that prefixes of every
// length overlap and replace each other often.
func fuzzAddr(b byte) packet.Addr { return packet.IPv4Addr(10, b%3, b/3%4, b/12%3) }

// fuzzRoute decodes three bytes into a route. a picks the length, /24
// most often and /32 (which turns off the /24 probe) least, and makes
// one route in eight local; b picks the prefix from the address pool;
// c's low bits pick the ports and its top two bits rotate their order,
// so a static group is not always ascending.
func fuzzRoute(a, b, c byte) Route {
	r := Route{Prefix: fuzzAddr(b), Bits: [8]int{0, 8, 16, 24, 24, 24, 24, 32}[a&7]}
	if a>>3&7 == 0 {
		r.Local = true
		return r
	}
	for i := range fuzzPorts {
		if p := (i + int(c>>6)) % fuzzPorts; c>>p&1 == 1 {
			r.Ports = append(r.Ports, p)
		}
	}
	return r
}

// fuzzUsable decodes two bytes into a pure PruneRoutes predicate: it
// rejects the ports in mask for the prefixes sel picks (every prefix
// when sel's top bit is set). A table on a base evaluates the predicate
// twice for the routes it reads from the base, so it must not depend on
// call order.
func fuzzUsable(mask, sel byte) func(packet.Addr, int, int) bool {
	return func(prefix packet.Addr, bits, port int) bool {
		hit := sel&0x80 != 0 || (int(prefix[1])*4+int(prefix[2])+bits)%3 == int(sel%3)
		return !hit || mask>>port&1 == 0
	}
}

// FuzzRouteTable drives two switches that share one RouteBase beneath
// their own routes, and for each a reference switch with a private
// table built by adding the base's routes and then the same own routes
// (so a later add replaces a shadowed base route, as an own route
// shadows it). Inputs decode as a base-route count and three bytes per
// base route, then four bytes per call: adds of own routes, lookups and
// RouteUsable from the address pool, ResetRoutes and PruneRoutes with
// byte-driven predicates, and checks of every pool address. Every
// lookup must agree with its reference on prefix, length, locality and
// live ports, every PruneRoutes on whether anything changed, a switch
// may copy its base only for a change to a route it read from it, and
// the base must end as it was built.
func FuzzRouteTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0] % 32)
		data = data[1:]
		var rs []Route
		for ; n > 0 && len(data) >= 3; n, data = n-1, data[3:] {
			rs = append(rs, fuzzRoute(data[0], data[1], data[2]))
		}
		base := NewRouteBase(rs)
		built := slices.Clone(base.t.routes)
		for i := range built {
			built[i].Ports = slices.Clone(built[i].Ports)
			built[i].static = slices.Clone(built[i].static)
		}

		k := sim.NewKernel(1)
		var sws, refs [2]*Switch
		for i := range sws {
			var err error
			if sws[i], err = NewSwitch(k, DefaultConfig(fmt.Sprint("shared-", i), fuzzPorts), swMAC(byte(i))); err != nil {
				t.Fatal(err)
			}
			sws[i].SetRouteBase(base)
			if refs[i], err = NewSwitch(k, DefaultConfig(fmt.Sprint("private-", i), fuzzPorts), swMAC(byte(2+i))); err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				refs[i].AddRoute(r)
			}
		}

		lookup := func(step, sw int, a packet.Addr) {
			t.Helper()
			got, want := sws[sw].routes.lookup(a), refs[sw].routes.lookup(a)
			if (got == nil) != (want == nil) || got != nil && (got.Prefix != want.Prefix ||
				got.Bits != want.Bits || got.Local != want.Local || !slices.Equal(got.Ports, want.Ports)) {
				t.Fatalf("step %d: switch %d lookup(%v) = %+v, reference %+v", step, sw, a, got, want)
			}
		}
		usable := func(step, sw int, a packet.Addr) {
			t.Helper()
			if got, want := sws[sw].RouteUsable(a), refs[sw].RouteUsable(a); got != want {
				t.Fatalf("step %d: switch %d RouteUsable(%v) = %v, reference %v", step, sw, a, got, want)
			}
		}
		checkAll := func(step int) {
			t.Helper()
			for sw := range sws {
				for b := range 36 {
					lookup(step, sw, fuzzAddr(byte(b)))
					usable(step, sw, fuzzAddr(byte(b)))
				}
			}
		}

		// A switch copies its base only when a reset or prune changes a
		// route it read from the base: one that none of its own routes
		// shadowed and whose live group the reference edited.
		copyOnWrite := func(step, sw int, op func()) {
			t.Helper()
			rt := &sws[sw].routes
			if rt.base == nil {
				op()
				return
			}
			own := maps.Clone(rt.index)
			op()
			if rt.base != nil {
				return
			}
			ref := &refs[sw].routes
			for _, b := range base.t.routes {
				k := routeKey(b.Bits, b.Prefix.Uint32())
				if _, shadowed := own[k]; !b.Local && !shadowed && !slices.Equal(ref.routes[ref.index[k]].Ports, b.Ports) {
					return
				}
			}
			t.Fatalf("step %d: switch %d copied its base, but no route it read from the base changed", step, sw)
		}

		for step := 0; len(data) >= 4 && step < fuzzMaxCalls; step, data = step+1, data[4:] {
			sw, x, y, z := int(data[0]>>3&1), data[1], data[2], data[3]
			switch data[0] & 7 {
			case 0, 1:
				r := fuzzRoute(x, y, z)
				sws[sw].AddRoute(r)
				refs[sw].AddRoute(r)
			case 2:
				lookup(step, sw, fuzzAddr(x))
			case 3:
				usable(step, sw, fuzzAddr(x))
			case 4: // x is the mask of ports down
				up := func(p int) bool { return x>>p&1 == 0 }
				refs[sw].ResetRoutes(up)
				copyOnWrite(step, sw, func() { sws[sw].ResetRoutes(up) })
			case 5:
				pred := fuzzUsable(x, y)
				want := refs[sw].PruneRoutes(pred)
				var got bool
				copyOnWrite(step, sw, func() { got = sws[sw].PruneRoutes(pred) })
				if got != want {
					t.Fatalf("step %d: switch %d PruneRoutes changed=%v, reference %v", step, sw, got, want)
				}
			default:
				checkAll(step)
			}
		}
		checkAll(fuzzMaxCalls)

		for i := range built {
			r, b := &base.t.routes[i], &built[i]
			if r.Prefix != b.Prefix || r.Bits != b.Bits || r.Local != b.Local ||
				!slices.Equal(r.Ports, b.Ports) || !slices.Equal(r.static, b.static) {
				t.Fatalf("base route %d became %+v, built as %+v", i, *r, *b)
			}
		}
	})
}
