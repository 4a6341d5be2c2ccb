package fabric

import (
	"fmt"
	"slices"

	"rocesim/internal/link"
	"rocesim/internal/packet"
)

// Route is a forwarding entry: packets matching the prefix leave through
// one of Ports, chosen by ECMP hash. A route with Local=true instead
// hands the packet to the ToR's ARP/MAC delivery path (the destination is
// in this switch's own server subnet).
type Route struct {
	Prefix packet.Addr
	Bits   int // prefix length, 0..32
	Ports  []int
	Local  bool

	// static is the as-configured port set. Ports is the live ECMP group
	// the control plane prunes when next hops die and restores from
	// static when they come back (see ResetRoutes / PruneRoutes).
	//
	// Both are table-owned and shared: consecutive routes with equal
	// port sets share one static array, and Ports starts as static.
	// Nothing writes a port array once a route holds it, so sharing is
	// safe; a route whose live group changes gets a fresh slice.
	static []int
}

// prefixMask returns the network mask of a prefix length (0 for /0).
func prefixMask(bits int) uint32 {
	if bits == 0 {
		return 0
	}
	return uint32(0xffffffff) << uint(32-bits)
}

func (r Route) matches(a packet.Addr) bool {
	mask := prefixMask(r.Bits)
	return a.Uint32()&mask == r.Prefix.Uint32()&mask
}

// routeKey identifies a route by its length and canonical prefix.
func routeKey(bits int, prefix uint32) uint64 { return uint64(bits)<<32 | uint64(prefix) }

// routeTable is a longest-prefix-match table with an exact-match index
// on (length, prefix). The index doubles as the hot-path /24 probe: Clos
// tables hold one /24 per destination ToR, so most lookups are a single
// map probe; shorter prefixes (podset /16s, the default) fall back to a
// linear scan over a handful of entries.
//
// Adds append in O(1); the table is ordered and its index rebuilt once,
// on the first read after a batch of adds. One stable sort of the
// insertion-ordered slice yields exactly the order that sorting after
// every insert would, so forwarding and ECMP do not depend on batching.
//
// A fleet switch holds hundreds of routes over a handful of distinct
// ECMP groups, added in runs that share one group (a ToR's /24 per
// remote ToR all go out its uplinks). add copies a port set only when
// it differs from the previous route's, so a run costs one copy.
type routeTable struct {
	routes  []Route        // sorted by Bits descending once settled
	index   map[uint64]int // routeKey → position in routes
	maxBits int
	dirty   bool  // routes appended since the last settle
	last    []int // the most recent table-owned port set
	scratch []int // reused by ResetRoutes/PruneRoutes to build live groups
}

// add inserts a route, replacing any route with the same length and
// prefix. Host bits beyond the length are cleared first, so 10.0.1.7/24
// and 10.0.1.0/24 name one route. The table keeps its own copy of the
// port set (shared with the previous route when equal), never r.Ports
// itself, so the caller may reuse or change its slice afterwards.
func (t *routeTable) add(r Route) {
	if r.Bits < 0 || r.Bits > 32 {
		panic(fmt.Sprintf("fabric: prefix length %d", r.Bits))
	}
	if !slices.Equal(r.Ports, t.last) {
		t.last = append([]int(nil), r.Ports...)
	}
	// A fresh entry rather than an edited r: storing r would make escape
	// analysis treat the caller's Ports as leaking, heap-allocating every
	// []int{port} literal at the call sites.
	e := Route{
		Prefix: packet.AddrFromUint32(r.Prefix.Uint32() & prefixMask(r.Bits)),
		Bits:   r.Bits,
		Ports:  t.last,
		Local:  r.Local,
		static: t.last,
	}
	k := routeKey(e.Bits, e.Prefix.Uint32())
	if i, ok := t.index[k]; ok {
		t.routes[i] = e
		return
	}
	if t.index == nil {
		t.index = make(map[uint64]int)
	}
	t.index[k] = len(t.routes)
	t.routes = append(t.routes, e)
	t.maxBits = max(t.maxBits, e.Bits)
	t.dirty = true
}

// settle orders the routes by length, longest first, and re-points the
// index at their new positions. It is a no-op between batches of adds.
func (t *routeTable) settle() {
	if !t.dirty {
		return
	}
	slices.SortStableFunc(t.routes, func(a, b Route) int { return b.Bits - a.Bits })
	for i := range t.routes {
		t.index[routeKey(t.routes[i].Bits, t.routes[i].Prefix.Uint32())] = i
	}
	t.dirty = false
}

// lookup returns the longest-prefix-match route for a, or nil.
func (t *routeTable) lookup(a packet.Addr) *Route {
	t.settle()
	// A /24 hit is the longest possible match while no longer prefixes
	// are configured (Clos tables never hold any).
	if t.maxBits <= 24 {
		if i, ok := t.index[routeKey(24, a.Uint32()&prefixMask(24))]; ok {
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

// setLive installs live (a scratch slice) as the route's ECMP group,
// copy-on-write: an unchanged group stays as it is, the full static set
// is shared rather than copied, and only a genuinely new group gets its
// own slice. Ports keep their static order, so ECMP hashing over the
// surviving ports is the same as if the group had been edited in place.
func (r *Route) setLive(live []int) {
	switch {
	case slices.Equal(live, r.Ports):
	case slices.Equal(live, r.static):
		r.Ports = r.static
	default:
		r.Ports = append([]int(nil), live...)
	}
}

// ResetRoutes rebuilds every non-local route's live ECMP group from its
// static configuration, keeping only ports for which portUp returns
// true. The control plane calls this as the first step of reconvergence
// after a carrier change.
func (s *Switch) ResetRoutes(portUp func(port int) bool) {
	t := &s.routes
	t.settle()
	for i := range t.routes {
		r := &t.routes[i]
		if r.Local {
			continue
		}
		live := t.scratch[:0]
		for _, p := range r.static {
			if portUp(p) {
				live = append(live, p)
			}
		}
		r.setLive(live)
		t.scratch = live
	}
}

// PruneRoutes removes from every non-local route the ports the usable
// predicate rejects (typically: next hops that no longer have a path to
// the prefix). It reports whether anything changed, so a fixpoint
// iteration knows when withdrawal has propagated fully.
func (s *Switch) PruneRoutes(usable func(prefix packet.Addr, bits, port int) bool) bool {
	t := &s.routes
	t.settle()
	changed := false
	for i := range t.routes {
		r := &t.routes[i]
		if r.Local {
			continue
		}
		live := t.scratch[:0]
		for _, p := range r.Ports {
			if usable(r.Prefix, r.Bits, p) {
				live = append(live, p)
			}
		}
		if len(live) != len(r.Ports) {
			changed = true
			r.setLive(live)
		}
		t.scratch = live
	}
	return changed
}

// RouteUsable reports whether this switch can currently forward traffic
// for dst: it is up, and its longest-prefix match either delivers
// locally or still has at least one live next hop. Neighbors use this
// during reconvergence to decide whether this switch remains a valid
// ECMP member for the destination.
func (s *Switch) RouteUsable(dst packet.Addr) bool {
	if s.failed {
		return false
	}
	r := s.routes.lookup(dst)
	return r != nil && (r.Local || len(r.Ports) > 0)
}

// PortLink returns the cable attached to a port (nil if unattached),
// letting the control plane check carrier state.
func (s *Switch) PortLink(port int) *link.Link { return s.port[port].lk }
