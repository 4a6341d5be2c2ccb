package flighttrace

import (
	"fmt"
	"sort"
	"strings"

	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// Interval is one closed pause assertion: Node held its peer on (Port,
// Pri) paused from Start to End. Reason carries the closing event's
// annotation ("watchdog-disabled", "open-at-finish", ...).
type Interval struct {
	Node   string
	Port   int
	Pri    int
	Start  simtime.Time
	End    simtime.Time
	Reason string
}

// Duration returns the interval's length.
func (iv Interval) Duration() simtime.Duration { return iv.End.Sub(iv.Start) }

type portID struct {
	node string
	port int
}

type pauseID struct {
	node string
	port int
	pri  int
}

// Analyzer folds EvPauseXOFF/EvPauseXON trace events into a
// time-resolved pause-dependency graph. Given the fabric wiring
// (AddLink), an emitted pause interval is "explained" when the emitter
// was itself receiving a pause on the same priority when the interval
// began — pause propagation, the cascades of §3 and the storms of §6.
// Pause time that cannot be explained by an upstream pause was
// generated spontaneously, and the devices holding the most of it are
// the ranked root-cause candidates.
type Analyzer struct {
	// Slack tolerates bounded reordering between cause and effect:
	// an emitted interval starting up to Slack before the received
	// pause it reacts to is still considered explained. The default
	// covers same-tick event ordering.
	Slack simtime.Duration

	peers     map[portID]portID
	open      map[pauseID]simtime.Time
	intervals []Interval
	subs      []*telemetry.Subscription
}

// NewAnalyzer returns an analyzer with a 1 µs causality slack.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		Slack: simtime.Microsecond,
		peers: make(map[portID]portID),
		open:  make(map[pauseID]simtime.Time),
	}
}

// AddLink records a cable: port aPort of device a connects to port
// bPort of device b (both directions).
func (a *Analyzer) AddLink(aNode string, aPort int, bNode string, bPort int) {
	a.peers[portID{aNode, aPort}] = portID{bNode, bPort}
	a.peers[portID{bNode, bPort}] = portID{aNode, aPort}
}

// Peer resolves the device and port on the far end of (node, port).
func (a *Analyzer) Peer(node string, port int) (string, int, bool) {
	p, ok := a.peers[portID{node, port}]
	return p.node, p.port, ok
}

// Attach subscribes the analyzer to the bus. Call once per trace bus
// (Kernel.TraceBuses in a sharded run). Returns the analyzer for
// chaining.
func (a *Analyzer) Attach(bus *telemetry.TraceBus) *Analyzer {
	mask := telemetry.EvPauseXOFF.Mask() | telemetry.EvPauseXON.Mask()
	a.subs = append(a.subs, bus.Subscribe(mask, nil, a.handle))
	return a
}

// Close unsubscribes from every attached bus.
func (a *Analyzer) Close() {
	for _, sub := range a.subs {
		sub.Close()
	}
	a.subs = nil
}

func (a *Analyzer) handle(ev telemetry.Event) {
	id := pauseID{ev.Node, ev.Port, ev.Pri}
	switch ev.Type {
	case telemetry.EvPauseXOFF:
		if _, dup := a.open[id]; !dup {
			a.open[id] = ev.At
		}
	case telemetry.EvPauseXON:
		start, ok := a.open[id]
		if !ok {
			return
		}
		delete(a.open, id)
		a.intervals = append(a.intervals, Interval{
			Node: ev.Node, Port: ev.Port, Pri: ev.Pri,
			Start: start, End: ev.At, Reason: ev.Reason,
		})
	}
}

// Finish closes every still-open pause interval at the given time.
// Call once when the run ends, before Report.
func (a *Analyzer) Finish(now simtime.Time) {
	// Deterministic close order: sort the open keys.
	keys := make([]pauseID, 0, len(a.open))
	for id := range a.open {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		if keys[i].port != keys[j].port {
			return keys[i].port < keys[j].port
		}
		return keys[i].pri < keys[j].pri
	})
	for _, id := range keys {
		a.intervals = append(a.intervals, Interval{
			Node: id.node, Port: id.port, Pri: id.pri,
			Start: a.open[id], End: now, Reason: "open-at-finish",
		})
		delete(a.open, id)
	}
}

// Intervals returns the closed pause intervals in emission order.
func (a *Analyzer) Intervals() []Interval { return a.intervals }

// PausedPort is the total pause time one device held one (port,
// priority) under.
type PausedPort struct {
	Node      string
	Port      int
	Pri       int
	Paused    simtime.Duration
	Intervals int
}

// RootCause scores one device's contribution of spontaneous
// (unexplained) pause time.
type RootCause struct {
	Node        string
	Unexplained simtime.Duration // pause emitted with no upstream cause
	Total       simtime.Duration // all pause emitted
	Intervals   int
	Spontaneous int // intervals with no upstream cause
}

// PFCReport is the analyzed pause-propagation picture of one run.
type PFCReport struct {
	Paused       []PausedPort // per (node, port, pri), sorted
	Roots        []RootCause  // ranked: most unexplained pause first
	CascadeDepth int          // longest causal pause chain (devices)
	HasCycle     bool         // a pause dependency cycle (PFC deadlock)
	Cycle        []string     // nodes on one detected cycle, if any
}

// Report analyzes the collected intervals. Call after Finish.
func (a *Analyzer) Report() *PFCReport {
	r := &PFCReport{}

	// Per-(node,port,pri) pause time.
	byPort := make(map[pauseID]*PausedPort)
	for _, iv := range a.intervals {
		id := pauseID{iv.Node, iv.Port, iv.Pri}
		pp := byPort[id]
		if pp == nil {
			pp = &PausedPort{Node: iv.Node, Port: iv.Port, Pri: iv.Pri}
			byPort[id] = pp
		}
		pp.Paused += iv.Duration()
		pp.Intervals++
	}
	for _, pp := range byPort {
		r.Paused = append(r.Paused, *pp)
	}
	sort.Slice(r.Paused, func(i, j int) bool {
		x, y := r.Paused[i], r.Paused[j]
		if x.Node != y.Node {
			return x.Node < y.Node
		}
		if x.Port != y.Port {
			return x.Port < y.Port
		}
		return x.Pri < y.Pri
	})

	// Causality: interval i is explained by interval j when j's pause
	// lands on i's emitter (peer of j's port is i's node), on the same
	// priority, and is active when i begins (within Slack).
	//
	// A storm replay collects tens of thousands of intervals, so an
	// all-pairs sweep is quadratic minutes of CPU. Instead: per source
	// (node, port, pri) the intervals are disjoint and time-ordered (an
	// XOFF only reopens after the prior XON closed), so the candidates
	// overlapping any [start, start+Slack] window form a contiguous run
	// reachable by binary search.
	n := len(a.intervals)
	parents := make([][]int, n)
	bySrc := make(map[pauseID][]int)
	for j, cand := range a.intervals {
		id := pauseID{cand.Node, cand.Port, cand.Pri}
		bySrc[id] = append(bySrc[id], j)
	}
	// Source keys grouped by the device their pause lands on, sorted so
	// parent discovery order is deterministic.
	type effectKey struct {
		node string
		pri  int
	}
	srcsOf := make(map[effectKey][]pauseID)
	for id := range bySrc {
		if peer, ok := a.peers[portID{id.node, id.port}]; ok {
			k := effectKey{peer.node, id.pri}
			srcsOf[k] = append(srcsOf[k], id)
		}
	}
	for _, ids := range srcsOf {
		sort.Slice(ids, func(x, y int) bool {
			if ids[x].node != ids[y].node {
				return ids[x].node < ids[y].node
			}
			if ids[x].port != ids[y].port {
				return ids[x].port < ids[y].port
			}
			return ids[x].pri < ids[y].pri
		})
	}
	for i, iv := range a.intervals {
		for _, src := range srcsOf[effectKey{iv.Node, iv.Pri}] {
			idxs := bySrc[src]
			// First candidate still active at iv.Start (per source, End
			// is increasing along with Start).
			lo := sort.Search(len(idxs), func(k int) bool {
				return a.intervals[idxs[k]].End >= iv.Start
			})
			for _, j := range idxs[lo:] {
				cand := a.intervals[j]
				if cand.Start > iv.Start.Add(a.Slack) {
					break
				}
				if j != i {
					parents[i] = append(parents[i], j)
				}
			}
		}
	}

	// Root-cause scoring: spontaneous pause duration per node.
	byNode := make(map[string]*RootCause)
	for i, iv := range a.intervals {
		rc := byNode[iv.Node]
		if rc == nil {
			rc = &RootCause{Node: iv.Node}
			byNode[iv.Node] = rc
		}
		d := iv.Duration()
		rc.Total += d
		rc.Intervals++
		if len(parents[i]) == 0 {
			rc.Unexplained += d
			rc.Spontaneous++
		}
	}
	for _, rc := range byNode {
		r.Roots = append(r.Roots, *rc)
	}
	sort.Slice(r.Roots, func(i, j int) bool {
		x, y := r.Roots[i], r.Roots[j]
		if x.Unexplained != y.Unexplained {
			return x.Unexplained > y.Unexplained
		}
		if x.Total != y.Total {
			return x.Total > y.Total
		}
		return x.Node < y.Node
	})

	// Cascade depth: longest parent chain, in devices. The on-stack
	// guard only terminates interval-level loops (mutually sustaining
	// intervals); deadlock detection happens on the node graph below.
	depth := make([]int, n)
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	state := make([]int, n)
	var visit func(i int) int
	visit = func(i int) int {
		switch state[i] {
		case done:
			return depth[i]
		case onStack:
			return 0
		}
		state[i] = onStack
		best := 0
		for _, j := range parents[i] {
			if d := visit(j); d > best {
				best = d
			}
		}
		depth[i] = best + 1
		state[i] = done
		return depth[i]
	}
	for i := 0; i < n; i++ {
		if d := visit(i); d > r.CascadeDepth {
			r.CascadeDepth = d
		}
	}

	// Node-level causal graph (edge cause → effect): a directed cycle
	// among devices — each pausing because the next one paused it — is
	// the PFC deadlock signature (Figure 4), even when no two
	// individual intervals overlap mutually.
	adj := make(map[string][]string)
	seen := make(map[[2]string]bool)
	for i := range a.intervals {
		for _, j := range parents[i] {
			e := [2]string{a.intervals[j].Node, a.intervals[i].Node}
			if e[0] == e[1] || seen[e] {
				continue
			}
			seen[e] = true
			adj[e[0]] = append(adj[e[0]], e[1])
		}
	}
	nodes := make([]string, 0, len(adj))
	for v := range adj {
		sort.Strings(adj[v])
		nodes = append(nodes, v)
	}
	sort.Strings(nodes)
	r.Cycle = findCycle(nodes, adj)
	r.HasCycle = len(r.Cycle) > 0
	return r
}

// findCycle returns the nodes of one directed cycle in adj, or nil.
func findCycle(nodes []string, adj map[string][]string) []string {
	state := make(map[string]int) // 0 unvisited, 1 on stack, 2 done
	var stack []string
	var cycle []string
	var visit func(v string) bool
	visit = func(v string) bool {
		state[v] = 1
		stack = append(stack, v)
		for _, w := range adj[v] {
			switch state[w] {
			case 1:
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == w {
						cycle = append([]string(nil), stack[i:]...)
						return true
					}
				}
			case 0:
				if visit(w) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[v] = 2
		return false
	}
	for _, v := range nodes {
		if state[v] == 0 && visit(v) {
			return cycle
		}
	}
	return nil
}

// Table renders the report as text: total paused time per (port,
// priority), then the root-cause ranking. Deterministic.
func (r *PFCReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pause time per (device, port, priority):\n")
	fmt.Fprintf(&b, "  %-20s %4s %3s %12s %9s\n", "device", "port", "pri", "paused", "intervals")
	for _, pp := range r.Paused {
		fmt.Fprintf(&b, "  %-20s %4d %3d %12v %9d\n", pp.Node, pp.Port, pp.Pri, pp.Paused, pp.Intervals)
	}
	fmt.Fprintf(&b, "root-cause ranking (spontaneous pause time):\n")
	fmt.Fprintf(&b, "  %4s %-20s %12s %12s %9s %11s\n",
		"rank", "device", "unexplained", "total", "intervals", "spontaneous")
	for i, rc := range r.Roots {
		fmt.Fprintf(&b, "  %4d %-20s %12v %12v %9d %11d\n",
			i+1, rc.Node, rc.Unexplained, rc.Total, rc.Intervals, rc.Spontaneous)
	}
	fmt.Fprintf(&b, "cascade depth: %d\n", r.CascadeDepth)
	if r.HasCycle {
		fmt.Fprintf(&b, "pause dependency CYCLE (PFC deadlock): %s\n",
			strings.Join(r.Cycle, " -> "))
	}
	return b.String()
}

// TopRoot returns the highest-ranked root-cause device name, or "".
func (r *PFCReport) TopRoot() string {
	if len(r.Roots) == 0 {
		return ""
	}
	return r.Roots[0].Node
}
