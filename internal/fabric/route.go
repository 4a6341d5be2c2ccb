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
// tables hold one /24 per destination ToR, so most lookups are one map
// probe, or two on a table with a base; shorter prefixes (podset /16s,
// the default) fall back to a linear scan over a handful of entries.
//
// Adds append in O(1); the table is ordered and its index rebuilt once,
// on the first read after a batch of adds. One stable sort of the
// insertion-ordered slice yields exactly the order that sorting after
// every insert would, so forwarding and ECMP do not depend on batching.
//
// A fleet table holds hundreds of routes over a handful of distinct
// ECMP groups, added in runs that share one group (a ToR base's /24 per
// ToR all go out the uplinks). add copies a port set only when it
// differs from the previous route's, so a run costs one copy.
//
// Most of those routes are the same on every switch of a role, so a
// table may sit on a base (see RouteBase) and hold only what differs:
// its own routes shadow the base's routes with the same key.
type routeTable struct {
	routes    []Route        // sorted by Bits descending once settled
	index     map[uint64]int // routeKey → position in routes
	maxBits   int
	shortFrom int        // position of the first route shorter than /24, once settled
	dirty     bool       // routes appended since the last settle
	last      []int      // the most recent table-owned port set
	scratch   []int      // reused by ResetRoutes/PruneRoutes to build live groups
	base      *RouteBase // shared routes beneath this table's own, or nil
}

// RouteBase is a settled route table that many switches share beneath
// their own routes: in a Clos fleet every ToR (or leaf, or spine)
// numbers its ports alike and routes every remote ToR the same way, so
// one base per role replaces a private copy per switch and route state
// grows linearly with the fleet instead of with its square.
//
// A base is complete and settled when NewRouteBase returns, and nothing
// writes to it afterwards: switches on different shards read it at
// once, and a switch whose reconvergence would change one of its routes
// copies them into its own table first.
type RouteBase struct{ t routeTable }

// NewRouteBase builds a base from its complete route list, with the
// same replacement and port-set rules as Switch.AddRoute.
func NewRouteBase(rs []Route) *RouteBase {
	b := new(RouteBase)
	for _, r := range rs {
		b.t.add(r)
	}
	b.t.settle()
	return b
}

// Len returns the number of routes the base holds.
func (b *RouteBase) Len() int { return len(b.t.routes) }

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
	t.shortFrom = len(t.routes)
	for i := range t.routes {
		t.index[routeKey(t.routes[i].Bits, t.routes[i].Prefix.Uint32())] = i
		if t.routes[i].Bits < 24 {
			t.shortFrom = min(t.shortFrom, i)
		}
	}
	t.dirty = false
}

// lookup returns the longest-prefix-match route for a, or nil. The
// table's own match and its base's are both longest matches, and the
// longer one wins; on equal lengths they have the same key, and the
// table's own route shadows the base's. A route from the base is
// read-only.
func (t *routeTable) lookup(a packet.Addr) *Route {
	t.settle()
	r := t.match(a)
	if t.base == nil || r != nil && r.Bits >= t.base.t.maxBits {
		return r
	}
	if br := t.base.t.match(a); br != nil && (r == nil || br.Bits > r.Bits) {
		return br
	}
	return r
}

// match returns the longest-prefix match among the table's own routes,
// which must be settled.
func (t *routeTable) match(a packet.Addr) *Route {
	from := 0
	// A /24 hit is the longest possible match while no longer prefixes
	// are configured (Clos tables never hold any), and a miss rules out
	// every /24, so the scan starts past them.
	if t.maxBits <= 24 {
		if i, ok := t.index[routeKey(24, a.Uint32()&prefixMask(24))]; ok {
			return &t.routes[i]
		}
		from = t.shortFrom
	}
	for i := from; i < len(t.routes); i++ {
		if t.routes[i].matches(a) {
			return &t.routes[i]
		}
	}
	return nil
}

// diverges reports whether edit holds for any non-local base route that
// none of the table's own routes shadows: whether a reset or prune
// would change a route the table still reads from its base.
func (t *routeTable) diverges(edit func(r *Route) bool) bool {
	if t.base == nil {
		return false
	}
	for i := range t.base.t.routes {
		r := &t.base.t.routes[i]
		if r.Local {
			continue
		}
		if _, shadowed := t.index[routeKey(r.Bits, r.Prefix.Uint32())]; !shadowed && edit(r) {
			return true
		}
	}
	return false
}

// unshare copies the base's unshadowed routes into the table and drops
// the base, leaving the same routes a table built without a base would
// hold. The copies share the base's port arrays, which nothing writes.
func (t *routeTable) unshare() {
	b := &t.base.t
	t.base = nil
	if t.index == nil {
		t.index = make(map[uint64]int, len(b.routes))
	}
	for _, r := range b.routes {
		k := routeKey(r.Bits, r.Prefix.Uint32())
		if _, shadowed := t.index[k]; shadowed {
			continue
		}
		t.index[k] = len(t.routes)
		t.routes = append(t.routes, r)
	}
	t.maxBits = max(t.maxBits, b.maxBits)
	t.dirty = true
	t.settle()
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
// after a carrier change. A switch whose routes from its base keep
// every port keeps sharing the base; otherwise it copies the base first.
func (s *Switch) ResetRoutes(portUp func(port int) bool) {
	t := &s.routes
	t.settle()
	if t.diverges(func(r *Route) bool {
		return slices.ContainsFunc(r.static, func(p int) bool { return !portUp(p) })
	}) {
		t.unshare()
	}
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
// iteration knows when withdrawal has propagated fully. As in
// ResetRoutes, the switch copies its base only if a route it reads from
// the base would lose a port.
func (s *Switch) PruneRoutes(usable func(prefix packet.Addr, bits, port int) bool) bool {
	t := &s.routes
	t.settle()
	if t.diverges(func(r *Route) bool {
		return slices.ContainsFunc(r.Ports, func(p int) bool { return !usable(r.Prefix, r.Bits, p) })
	}) {
		t.unshare()
	}
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

// SetRouteBase puts b beneath the switch's own routes: b's routes
// forward as the switch's own unless AddRoute installs one with the same
// length and prefix, which shadows it. Reconvergence copies b into the
// switch's own table the first time it would change one of b's routes.
func (s *Switch) SetRouteBase(b *RouteBase) { s.routes.base = b }

// RouteState reports how the switch holds its routes: the base it still
// shares (nil without one, or once reconvergence copied it) and the
// number of routes in its own table.
func (s *Switch) RouteState() (base *RouteBase, own int) {
	return s.routes.base, len(s.routes.routes)
}

// LookupRoute returns a copy of the switch's longest-prefix-match route
// for dst. Its Ports is the live ECMP group and is shared with the
// table: read it, do not modify it.
func (s *Switch) LookupRoute(dst packet.Addr) (Route, bool) {
	if r := s.routes.lookup(dst); r != nil {
		return *r, true
	}
	return Route{}, false
}

// PortLink returns the cable attached to a port (nil if unattached),
// letting the control plane check carrier state.
func (s *Switch) PortLink(port int) *link.Link { return s.port[port].lk }
