// Sharded parallel execution: a ShardGroup partitions one simulation
// across N shard kernels plus a control ("global") kernel, synchronized
// by conservative lookahead.
//
// The model is the classic conservative PDES recipe specialized to a
// Clos fabric: the topology layer assigns every device to a shard and
// computes the lookahead window L = the minimum propagation delay over
// links whose endpoints live on different shards. Execution proceeds in
// half-open windows [T, T+L): each shard drains its own heap for the
// window on its own worker goroutine, and any event one shard schedules
// on another — only link deliveries cross shards — necessarily lands at
// or beyond T+L, so no shard can ever receive an event for a window it
// already executed. Cross-shard handoffs travel through per-source
// outboxes (the bounded inter-worker rings of NDN-DPDK's forwarder
// model, minus the lock-free part: the barrier is the synchronization)
// and are merged at the barrier in deterministic
// (at, schedAt, lane, srcShard, srcSeq) order, so the destination heap
// receives them in an order independent of worker scheduling.
//
// Determinism contract: shards=1 and shards=N produce byte-identical
// results from the same seed because
//
//   - same-instant events on different shards touch disjoint state
//     (devices never share mutable state across shards), so their
//     relative execution order cannot be observed;
//   - random streams are name-derived from the shared seed (Kernel.Rand)
//     and NamedSeq counters are group-scoped, so "link/7" names the same
//     stream no matter how the fabric is partitioned;
//   - packet UIDs are per-NIC counters, already partition-independent;
//   - the event-heap total order (at, observer band, schedAt, lane, seq)
//     is itself partition-independent for everything that can cross
//     shards (link deliveries, all in the normal band): a cross-shard
//     arrival carries the sender's schedule time (schedAt) and its link
//     lane, so it interleaves with the destination's own same-picosecond
//     events exactly where the single kernel would have fired it — by
//     cause time, then wire lane (stable link ID + side, like a switch
//     sweeping ingress ports in port order), with the deterministic
//     merge order as the final tiebreak.
//
// The global kernel runs control-plane work (monitors, pingmesh probes,
// experiment harness callbacks) single-threaded at the barrier: when
// the group frontier reaches a global event's timestamp, every shard
// has finished everything earlier, so the event may freely read or
// schedule into any shard. Normal-band global events at instant t run
// before shard events at t, matching the single-kernel order for the
// common case (tickers re-armed a full period earlier carry a lower
// sequence number than data events scheduled inside the last window).
// Observer-band global events at t run after them, as on one kernel:
// before each, every shard runs its events at t (a window inclusive
// through t), so a telemetry scrape reads the completed instant at any
// shard count.
package sim

import (
	"fmt"
	"sort"

	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// xmsg is one cross-shard event handoff, buffered in the source shard's
// outbox until the window barrier. It carries the sender-side ordering
// key (schedAt, lane) so the destination heap interleaves the arrival
// with its own same-instant events exactly as a single kernel would.
type xmsg struct {
	at       simtime.Time
	schedAt  simtime.Time // sender's clock at the schedule call
	lane     uint64       // sender's ordering lane (link side)
	src, dst int
	seq      uint64 // per-source-shard send counter: the final tiebreak
	afn      ArgEvent
	arg      any
}

// windowReq asks a worker to drain its shard's heap up to bound
// (exclusive, or inclusive for the deadline's final window).
type windowReq struct {
	bound     simtime.Time
	inclusive bool
}

// ShardGroup couples N shard kernels and one global kernel into a
// single logical simulation.
type ShardGroup struct {
	seed      int64
	global    *Kernel
	shards    []*Kernel
	lookahead simtime.Duration
	metrics   *telemetry.Registry

	// Group-scoped construction state shared by all member kernels, so a
	// fabric built across shards numbers and announces its components
	// exactly like one built on a single kernel. Setup is
	// single-threaded; these are never touched while workers run.
	seqs       map[string]uint64
	announced  []any
	onAnnounce []func(any)

	outbox [][]xmsg // per source shard, filled during a window
	xseq   []uint64 // per source shard send counter
	merged []xmsg   // barrier scratch

	workers []chan windowReq
	done    chan error
	started bool
}

// NewShardGroup builds a group with n shard kernels (n >= 1) and a
// global control kernel, all deriving randomness from seed and sharing
// one telemetry registry. Before the first RunUntil on a multi-shard
// group, the wiring layer must call SetLookahead with the minimum
// cross-shard link propagation delay.
func NewShardGroup(seed int64, n int) *ShardGroup {
	if n < 1 {
		panic("sim: shard group needs at least one shard")
	}
	g := &ShardGroup{
		seed:    seed,
		metrics: telemetry.NewRegistry(),
		seqs:    make(map[string]uint64),
		outbox:  make([][]xmsg, n),
		xseq:    make([]uint64, n),
	}
	g.global = newMemberKernel(g, -1)
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, newMemberKernel(g, i))
	}
	return g
}

// newMemberKernel builds a kernel wired into g: shared seed and metric
// registry, private heap, trace bus and packet pool.
func newMemberKernel(g *ShardGroup, shard int) *Kernel {
	k := &Kernel{seed: g.seed, metrics: g.metrics, group: g, shard: shard}
	k.trace = telemetry.NewTraceBus(func() simtime.Time { return k.now })
	k.pool = newKernelPool(k)
	return k
}

// NewRoot returns the kernel an experiment drives: a plain kernel when
// shards <= 1 (zero behavioral difference from NewKernel), otherwise
// the global kernel of a fresh ShardGroup. Callers reach the group via
// Kernel.Group to place devices on shards.
func NewRoot(seed int64, shards int) *Kernel {
	if shards <= 1 {
		return NewKernel(seed)
	}
	return NewShardGroup(seed, shards).Global()
}

// Global returns the control kernel. Its events run single-threaded at
// window barriers and may touch any shard's state.
func (g *ShardGroup) Global() *Kernel { return g.global }

// Shard returns shard i's kernel.
func (g *ShardGroup) Shard(i int) *Kernel { return g.shards[i] }

// N returns the number of shards.
func (g *ShardGroup) N() int { return len(g.shards) }

// Seed returns the group's root seed.
func (g *ShardGroup) Seed() int64 { return g.seed }

// SetLookahead declares the conservative lookahead window: no event
// executed on one shard may cause an event on another shard sooner than
// d later. The topology layer derives it from the shortest cross-shard
// cable. Setting a smaller d than an earlier call keeps the smaller
// value safe; growing it mid-run would be unsound, so only the minimum
// is retained.
func (g *ShardGroup) SetLookahead(d simtime.Duration) {
	if d <= 0 {
		panic("sim: non-positive lookahead")
	}
	if g.lookahead == 0 || d < g.lookahead {
		g.lookahead = d
	}
}

// Lookahead returns the configured window, zero if none yet.
func (g *ShardGroup) Lookahead() simtime.Duration { return g.lookahead }

// EventsFired sums executed events across the global kernel and every
// shard. The total is partition-independent: the same logical events
// fire no matter how the fabric is sharded.
func (g *ShardGroup) EventsFired() uint64 {
	t := g.global.fired
	for _, s := range g.shards {
		t += s.fired
	}
	return t
}

// send buffers a cross-shard handoff from src's execution context. From
// the global kernel (barrier context: no worker is running) scheduling
// is direct; from a shard worker the event rides the outbox and is
// merged at the barrier.
func (g *ShardGroup) send(src, dst *Kernel, at, schedAt simtime.Time, lane uint64, fn ArgEvent, arg any) {
	if src.shard < 0 {
		dst.atKeyed(at, schedAt, lane, fn, arg)
		return
	}
	if dst.shard < 0 {
		panic("sim: shard event may not schedule onto the global kernel (barrier-owned)")
	}
	s := src.shard
	g.xseq[s]++
	g.outbox[s] = append(g.outbox[s], xmsg{at: at, schedAt: schedAt, lane: lane, src: s, dst: dst.shard, seq: g.xseq[s], afn: fn, arg: arg})
}

// traceActive reports whether any shard's trace bus has subscribers.
// Tracing observers (flight recorders, flow tracers, PFC analyzers) are
// shared across shards, so traced runs execute windows sequentially in
// shard order — the same windows, the same merge order, byte-identical
// results, just without the parallelism. The precedent is the packet
// pool, which parks recycling whenever packet-carrying events have
// subscribers.
func (g *ShardGroup) traceActive() bool {
	for _, s := range g.shards {
		if s.trace.Active() {
			return true
		}
	}
	return false
}

// setNow advances every member clock to t (never backwards).
func (g *ShardGroup) setNow(t simtime.Time) {
	if g.global.now < t {
		g.global.now = t
	}
	for _, s := range g.shards {
		if s.now < t {
			s.now = t
		}
	}
}

// runUntil is the group executive, entered via the global kernel's
// RunUntil. Loop invariant at the top: every member has executed all
// events strictly before the minimum pending timestamp m.
func (g *ShardGroup) runUntil(deadline simtime.Time) {
	if len(g.shards) > 1 && g.lookahead <= 0 {
		panic("sim: multi-shard group has no lookahead; wire a topology (or call SetLookahead) first")
	}
	for {
		m := g.global.nextLiveAt()
		for _, s := range g.shards {
			if t := s.nextLiveAt(); t < m {
				m = t
			}
		}
		if m == simtime.Forever || m > deadline {
			break
		}
		// Barrier work first: clocks to m, then global events at m. They
		// may schedule anywhere — every shard is quiescent and caught up.
		// An observer-band event reads the completed instant, so the
		// shards first run their own events at m.
		g.setNow(m)
		for g.global.nextLiveAt() == m {
			if g.global.queue[0].it.seq&observerBand != 0 {
				g.runShards(m, true)
				g.mergeOutboxes(m + 1)
			}
			g.global.Step()
		}
		// The shard window: [m, horizon), clamped so it never crosses the
		// next barrier-run global event, never exceeds the lookahead, and
		// becomes inclusive at the deadline (RunUntil's contract includes
		// events at the deadline itself).
		horizon := simtime.Forever
		if len(g.shards) > 1 {
			horizon = m.Add(g.lookahead)
		}
		if t := g.global.nextLiveAt(); t < horizon {
			horizon = t
		}
		bound, inclusive := horizon, false
		if bound > deadline {
			bound, inclusive = deadline, true
		}
		g.runShards(bound, inclusive)
		g.mergeOutboxes(bound)
	}
	if deadline != simtime.Forever {
		g.setNow(deadline)
	}
}

// runShards runs one window on every shard: in shard order when there
// is one shard or a trace subscriber, otherwise on the workers.
func (g *ShardGroup) runShards(bound simtime.Time, inclusive bool) {
	if len(g.shards) == 1 || g.traceActive() {
		for _, s := range g.shards {
			s.runWindow(bound, inclusive)
		}
		return
	}
	g.runWindowsParallel(bound, inclusive)
}

// runWindowsParallel dispatches one window to every shard worker and
// waits for all of them (the conservative barrier). Worker panics are
// re-raised here on the coordinating goroutine.
func (g *ShardGroup) runWindowsParallel(bound simtime.Time, inclusive bool) {
	g.startWorkers()
	req := windowReq{bound: bound, inclusive: inclusive}
	for _, ch := range g.workers {
		ch <- req
	}
	var failure error
	for range g.workers {
		if err := <-g.done; err != nil {
			failure = err
		}
	}
	if failure != nil {
		panic(failure)
	}
}

// startWorkers spawns the persistent per-shard goroutines on first
// parallel use. Workers live for the process (they block on their
// request channel between windows); a simulation that ends simply
// leaves them parked.
func (g *ShardGroup) startWorkers() {
	if g.started {
		return
	}
	g.started = true
	g.done = make(chan error, len(g.shards))
	g.workers = make([]chan windowReq, len(g.shards))
	for i := range g.shards {
		ch := make(chan windowReq)
		g.workers[i] = ch
		go func(s *Kernel, ch chan windowReq) {
			for req := range ch {
				g.done <- runWindowRecover(s, req)
			}
		}(g.shards[i], ch)
	}
}

// runWindowRecover converts a shard panic into an error so the barrier
// can re-raise it without deadlocking the other workers.
func runWindowRecover(s *Kernel, req windowReq) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: shard %d: %v", s.shard, r)
		}
	}()
	s.runWindow(req.bound, req.inclusive)
	return nil
}

// mergeOutboxes drains every shard's outbox into the destination heaps
// in (at, schedAt, lane, srcShard, srcSeq) order — a pure function of
// the per-shard executions, independent of worker interleaving. The
// heap's own (at, observer band, schedAt, lane, seq) comparison then
// interleaves the merged arrivals (all normal band) with events the
// destination scheduled itself exactly as a single kernel would: by
// cause time, then wire lane, with the merged insertion order (and hence
// fresh sequence numbers) as the final deterministic tiebreak.
func (g *ShardGroup) mergeOutboxes(bound simtime.Time) {
	g.merged = g.merged[:0]
	for i := range g.outbox {
		g.merged = append(g.merged, g.outbox[i]...)
		g.outbox[i] = g.outbox[i][:0]
	}
	if len(g.merged) == 0 {
		return
	}
	sort.Slice(g.merged, func(a, b int) bool {
		x, y := &g.merged[a], &g.merged[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.schedAt != y.schedAt {
			return x.schedAt < y.schedAt
		}
		if x.lane != y.lane {
			return x.lane < y.lane
		}
		if x.src != y.src {
			return x.src < y.src
		}
		return x.seq < y.seq
	})
	for i := range g.merged {
		m := &g.merged[i]
		if m.at < bound {
			panic(fmt.Sprintf(
				"sim: cross-shard event at %v lands inside the executed window (bound %v): lookahead %v overstates the shortest cross-shard delay",
				m.at, bound, g.lookahead))
		}
		g.shards[m.dst].atKeyed(m.at, m.schedAt, m.lane, m.afn, m.arg)
		g.merged[i] = xmsg{} // drop the packet reference
	}
}

// nextLiveAt peeks the timestamp of the earliest live event, reaping
// cancelled heap tops on the way. Forever when the heap is empty.
func (k *Kernel) nextLiveAt() simtime.Time {
	if !k.peek() {
		return simtime.Forever
	}
	return k.queue[0].at
}

// runWindow fires this kernel's events up to bound — strictly before it
// normally, inclusively for the deadline's final window. The clock is
// left at the last fired event; the group advances it at barriers.
func (k *Kernel) runWindow(bound simtime.Time, inclusive bool) {
	for k.peek() {
		at := k.queue[0].at
		if at > bound || at == bound && !inclusive {
			return
		}
		k.fire()
	}
}
