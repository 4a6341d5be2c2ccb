// Package sim implements the discrete-event simulation engine that every
// other component runs on.
//
// The engine is fully deterministic: events fire in the total order
// (at, observer band, schedAt, lane, seq). Same-instant events fire
// normal band before observer band (AtObserve), then by the clock at
// which each was scheduled, then by ordering lane (link deliveries carry
// a per-wire lane, everything else lane 0), then in schedule order (a
// monotone sequence number). On one kernel with lane 0 throughout this
// is plain schedule order within each band. Randomness comes only from
// named, seeded streams handed out by the Kernel, so a run is
// reproducible from its seed alone.
//
// The scheduler is built for event rate: a hand-inlined 4-ary heap over a
// flat slice of 16-byte slots, each holding an event's timestamp and its
// item (no interface boxing, no container/heap), with a free-list that
// recycles items so steady-state scheduling performs zero allocations.
// Most comparisons read only the slot's timestamp; the rest of the key
// lives in the item. A fired event's slot is refilled by the first event
// its callback schedules, so the common fire-then-schedule step costs one
// sift instead of a pop and a push. Because the order is total, heap
// shape never leaks into fire order — replacing the heap arity or layout
// cannot change a simulation's results.
package sim

import (
	"fmt"
	"math/rand"

	"rocesim/internal/packet"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// Event is a callback scheduled to run at a simulated instant.
type Event func()

// ArgEvent is a callback carrying one argument. Scheduling an ArgEvent
// with a pointer-typed arg performs no allocation, which lets hot paths
// (link delivery, pipeline completions) schedule per-packet work without
// constructing a fresh closure per packet.
type ArgEvent func(arg any)

// item is one scheduled event. Items are owned by the kernel's free-list:
// a fired or dropped item is recycled by the next schedule. Nothing
// outside the kernel keeps an item except a Timer, which forgets its
// queued item before the item can be recycled (when it fires or is
// dropped), so an item needs no generation check. The event's timestamp
// lives in its heap slot, not here.
type item struct {
	// schedAt is the scheduling context's clock when the event was
	// created; lane disambiguates same-instant schedules from distinct
	// physical sources (link sides). Together with seq they break
	// timestamp ties in the partition-independent fire order — see
	// before().
	schedAt simtime.Time
	lane    uint64
	seq     uint64
	fn      Event
	afn     ArgEvent
	arg     any
}

// live reports whether the item still carries a callback (not yet fired
// or dropped).
func (it *item) live() bool { return it.fn != nil || it.afn != nil }

// clear drops the callbacks.
func (it *item) clear() {
	it.fn = nil
	it.afn = nil
	it.arg = nil
}

// drop cancels a queued item: it is cleared and deleted lazily when it
// reaches the top of the heap, or by a reap once dropped items outnumber
// live ones.
func (k *Kernel) drop(it *item) {
	it.clear()
	k.cancelled++
	if k.cancelled > k.queued()/2 {
		k.reap()
	}
}

// Kernel is the simulation executive: a clock, an event queue, a factory
// for deterministic random streams, the root of the telemetry layer (one
// metric registry and one trace bus per simulation), and the frame pool
// the packet hot path recycles through.
type Kernel struct {
	now       simtime.Time
	seq       uint64
	queue     []heapEnt // 4-ary min-heap ordered by (at, band, schedAt, lane, seq)
	vacant    bool      // queue[0] is the firing event's slot, awaiting its pop
	free      []*item   // recycled items; steady-state At/After allocate nothing
	cancelled int       // items in queue already cleared (lazily deleted)
	seed      int64
	fired     uint64
	metrics   *telemetry.Registry
	trace     *telemetry.TraceBus
	pool      *packet.Pool

	announced  []any       // every device/component announced so far
	onAnnounce []func(any) // observers; late subscribers get a replay

	seqs map[string]uint64 // kernel-scoped named counters (NamedSeq)

	// group/shard place the kernel inside a ShardGroup: shard >= 0 for a
	// shard kernel, -1 for the group's global (control) kernel. Both are
	// nil/zero-value for a plain single-kernel simulation.
	group *ShardGroup
	shard int
}

// NewKernel returns a kernel whose random streams derive from seed.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{seed: seed, metrics: telemetry.NewRegistry(), shard: -1}
	k.trace = telemetry.NewTraceBus(func() simtime.Time { return k.now })
	k.pool = newKernelPool(k)
	return k
}

// newKernelPool builds the kernel's frame pool. Recycling is only legal
// while nobody retains packet pointers past the hop: flight recorders
// and flow tracers subscribe to packet-carrying trace events and keep
// the pointers, so their presence parks the pool (Put becomes a no-op
// and packets fall to the collector exactly as they did before pooling
// existed).
func newKernelPool(k *Kernel) *packet.Pool {
	p := packet.NewPool()
	p.Retain = func() bool { return k.trace.Wants(telemetry.EvPacketCarrying) }
	return p
}

// Group returns the ShardGroup this kernel belongs to, nil for a plain
// kernel. Wiring layers use it to place devices on shard kernels.
func (k *Kernel) Group() *ShardGroup { return k.group }

// ShardIndex returns the kernel's shard number, -1 for a plain kernel
// or a group's global kernel.
func (k *Kernel) ShardIndex() int {
	if k.group == nil {
		return -1
	}
	return k.shard
}

// ScheduleOnLane schedules fn(arg) at the absolute time at on dst,
// which may be any kernel of the same group. Same-kernel (and
// same-shard, and barrier-context) calls schedule directly; a
// shard-to-shard call rides the group's outbox and is merged
// deterministically at the next window barrier. This is the only legal
// way for one shard's event to cause work on another shard. Events for
// the same destination and instant fire in ascending lane order (then
// schedule order within a lane), no matter how the simulation is
// partitioned. Link delivery uses it with a stable per-wire lane so
// same-picosecond arrivals at one device keep a canonical order; lane 0,
// which everything else uses, sorts first. With a pointer-typed arg the
// call performs no allocation.
func (k *Kernel) ScheduleOnLane(dst *Kernel, at simtime.Time, lane uint64, fn ArgEvent, arg any) {
	if dst == k || k.group == nil || dst.group != k.group || dst.shard == k.shard {
		dst.atKeyed(at, k.now, lane, fn, arg)
		return
	}
	k.group.send(k, dst, at, k.now, lane, fn, arg)
}

// atKeyed schedules fn(arg) at at with an explicit (schedAt, lane)
// ordering key — the cross-kernel insertion path, where the key must
// reflect the scheduling context (the sender), not this kernel's clock.
// The key is stamped before push, whose comparisons read it on
// timestamp ties.
func (k *Kernel) atKeyed(at, schedAt simtime.Time, lane uint64, fn ArgEvent, arg any) {
	if fn == nil {
		panic("sim: nil event")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, k.now))
	}
	it := k.newItem()
	it.schedAt = schedAt
	it.lane = lane
	it.afn = fn
	it.arg = arg
	k.push(at, it)
}

// Metrics returns the simulation's metric registry. Components register
// counters/gauges/histograms here at construction; monitors and
// experiment harnesses read them back via Snapshot.
func (k *Kernel) Metrics() *telemetry.Registry { return k.metrics }

// Trace returns the simulation's packet-lifecycle trace bus. With no
// subscribers, emission sites pay a single Active() check.
func (k *Kernel) Trace() *telemetry.TraceBus { return k.trace }

// TraceBuses returns every trace bus a fabric-wide observer must
// subscribe to: just k's own for a plain kernel, or the global bus plus
// one per shard for a grouped kernel (devices emit on their own shard's
// bus). Any subscription on a shard bus switches the group to
// sequential window execution, keeping observers single-threaded.
func (k *Kernel) TraceBuses() []*telemetry.TraceBus {
	if k.group == nil {
		return []*telemetry.TraceBus{k.trace}
	}
	out := []*telemetry.TraceBus{k.group.global.trace}
	for _, s := range k.group.shards {
		out = append(out, s.trace)
	}
	return out
}

// PacketPool returns the kernel's frame pool. NICs draw data frames and
// pause frames from it and every death point (delivery, drop, FCS error)
// returns them, so a steady-state hop allocates no packet memory.
func (k *Kernel) PacketPool() *packet.Pool { return k.pool }

// Announce registers a constructed component (switch, NIC, QP, ...) with
// the kernel so cross-cutting observers — auditors, debuggers — can
// discover the device population without the wiring code threading every
// component through every observer. The kernel deals only in `any`:
// observers type-switch on what they care about, so sim imports nothing.
func (k *Kernel) Announce(v any) {
	if v == nil {
		return
	}
	// Group members share one announcement bus: an observer attached to
	// any member (usually the global kernel) sees the whole fabric no
	// matter which shards its devices landed on.
	if g := k.group; g != nil {
		g.announced = append(g.announced, v)
		for _, fn := range g.onAnnounce {
			fn(v)
		}
		return
	}
	k.announced = append(k.announced, v)
	for _, fn := range k.onAnnounce {
		fn(v)
	}
}

// OnAnnounce subscribes fn to component announcements. Components already
// announced are replayed immediately in announcement order, so observers
// may attach at any point during setup.
func (k *Kernel) OnAnnounce(fn func(any)) {
	if g := k.group; g != nil {
		g.onAnnounce = append(g.onAnnounce, fn)
		for _, v := range g.announced {
			fn(v)
		}
		return
	}
	k.onAnnounce = append(k.onAnnounce, fn)
	for _, v := range k.announced {
		fn(v)
	}
}

// Now returns the current simulated time.
func (k *Kernel) Now() simtime.Time { return k.now }

// Seed returns the root seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// EventsFired returns how many events have executed so far. On a
// group's global kernel it returns the group-wide total — the same
// count a single kernel running the same simulation would report.
func (k *Kernel) EventsFired() uint64 {
	if k.group != nil && k.shard < 0 {
		return k.group.EventsFired()
	}
	return k.fired
}

// Pending returns the number of live (non-cancelled) events currently
// queued; an armed Timer counts once. Inside a callback the firing event
// no longer counts.
func (k *Kernel) Pending() int { return k.queued() - k.cancelled }

// queued returns the number of heap slots holding a queued event, live
// or cancelled: every slot but a vacant root.
func (k *Kernel) queued() int {
	if k.vacant {
		return len(k.queue) - 1
	}
	return len(k.queue)
}

// ---- 4-ary heap over (at, band, schedAt, lane, seq) ----
//
// A 4-ary layout halves the tree depth of the binary heap: pops do more
// comparisons per level but far fewer cache-missing levels, which is the
// dominant cost at fabric-scale queue depths. A slot is 16 bytes, the
// timestamp and the item pointer, so a node's four children share one
// 64-byte cache line. Comparisons read the item only when two timestamps
// tie, which is a small minority of them; the rest of the key stays in
// the item.
//
// Most fired events schedule a follow-up (a hop's delivery schedules the
// next serialisation, a pacer re-arms itself), so firing does not pop.
// While the callback runs, its slot stays at the root as a vacant hole:
// the callback's first schedule writes the hole and sifts it down, one
// sift where a pop followed by a push costs two. A callback that schedules
// nothing gets the ordinary pop when it returns, and every path that reads
// the heap fills the hole the same way first (settle).
//
// The total order is (at, observer band, schedAt, lane, seq). On a
// single kernel this is indistinguishable from the historical (at, seq)
// order whenever schedAt and lane don't discriminate: schedAt (the
// clock at schedule time) is nondecreasing in seq, and lane is nonzero
// only for link deliveries. What the richer key buys is partition
// independence: schedAt and lane are properties of the logical event —
// when it was caused and by which wire — not of which heap it sits in,
// so same-instant arrivals at one device from different sources fire in
// the same order whether those sources share the kernel or live on
// other shards. The one place the key intentionally overrides raw
// schedule order is a same-picosecond tie between two deliveries
// scheduled at the same instant on different lanes: they fire in stable
// lane (wire) order, like a switch sweeping its ingress ports in port
// order.

// heapEnt is one heap slot: the event's timestamp and its item, which
// holds the rest of the ordering key.
type heapEnt struct {
	at simtime.Time
	it *item
}

// before reports whether a must fire before b.
func before(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return tieBefore(a.it, b.it)
}

// tieBefore orders two events of the same instant by (observer band,
// schedAt, lane, seq).
func tieBefore(a, b *item) bool {
	if ab, bb := a.seq&observerBand, b.seq&observerBand; ab != bb {
		return ab < bb
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// push queues it at at. Into a vacant root (the firing event's slot) it
// sifts down; otherwise it is appended and sifts up.
func (k *Kernel) push(at simtime.Time, it *item) {
	e := heapEnt{at: at, it: it}
	if k.vacant {
		k.vacant = false
		k.siftDown(0, e)
		return
	}
	q := append(k.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	k.queue = q
}

// popRoot removes the root slot. Its item is the caller's to recycle.
func (k *Kernel) popRoot() {
	q := k.queue
	n := len(q) - 1
	last := q[n]
	q[n] = heapEnt{}
	k.queue = q[:n]
	if n > 0 {
		k.siftDown(0, last)
	}
}

// settle completes a deferred pop: a vacant root left by a callback that
// has scheduled nothing yet is removed. The vacant slot's item was
// recycled when its event fired, so it is not recycled here.
func (k *Kernel) settle() {
	if k.vacant {
		k.vacant = false
		k.popRoot()
	}
}

// peek settles the heap, drops cancelled events from its top, moves a
// timer item that surfaces under an older key than its timer's last
// reset to that key (see Timer), and reports whether queue[0] holds a
// live event due under its final key.
func (k *Kernel) peek() bool {
	k.settle()
	for len(k.queue) > 0 {
		it := k.queue[0].it
		if !it.live() {
			k.cancelled-- // cancelled; lazily deleted here
			k.recycle(it)
			k.popRoot()
			continue
		}
		if m, ok := it.arg.(*timerMark); ok && it.seq != m.seq {
			it.schedAt, it.seq = m.schedAt, m.seq
			m.itAt = m.at
			k.siftDown(0, heapEnt{at: m.at, it: it})
			continue
		}
		return true
	}
	return false
}

// siftDown places e in the hole at slot i and restores the invariant
// toward the leaves. A node with all four children picks the least in a
// tournament: the two pairs compare independently, then their winners,
// which is as many comparisons as a scan but a shorter dependency chain.
// The tournament runs on timestamps alone and without branches, since
// which child wins is close to a coin flip that a branch predictor keeps
// losing; when the timestamps it compared tie, it is replayed with the
// full key.
func (k *Kernel) siftDown(i int, e heapEnt) {
	q := k.queue
	n := len(q)
	for {
		c := i<<2 + 1 // leftmost child
		var best int
		if c+3 < n {
			kids := q[c : c+4 : c+4]
			a0, a1, a2, a3 := kids[0].at, kids[1].at, kids[2].at, kids[3].at
			w := less01(a1, a0)
			l, lat := c+w, a0+(a1-a0)&simtime.Time(-w)
			w = less01(a3, a2)
			r, rat := c+2+w, a2+(a3-a2)&simtime.Time(-w)
			best = l + (r-l)&-less01(rat, lat)
			if a0 == a1 || a2 == a3 || lat == rat {
				l, r = c, c+2
				if before(kids[1], kids[0]) {
					l = c + 1
				}
				if before(kids[3], kids[2]) {
					r = c + 3
				}
				best = l
				if before(q[r], q[l]) {
					best = r
				}
			}
		} else if c < n {
			best = c
			for j := c + 1; j < n; j++ {
				if before(q[j], q[best]) {
					best = j
				}
			}
		} else {
			break
		}
		b := q[best]
		if !before(b, e) {
			break
		}
		q[i] = b
		i = best
	}
	q[i] = e
}

// less01 is 1 when x < y and 0 otherwise, computed without a branch:
// timestamps are never negative, so x-y cannot overflow and its sign bit
// is the answer.
func less01(x, y simtime.Time) int { return int(uint64(x-y) >> 63) }

// newItem takes an item from the free-list (or allocates on a cold
// start) and stamps its tie-break key.
func (k *Kernel) newItem() *item {
	var it *item
	if n := len(k.free); n > 0 {
		it = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		it = &item{}
	}
	it.schedAt = k.now
	it.lane = 0
	it.seq = k.seq
	k.seq++
	return it
}

// recycle returns a dead (cleared) item to the free-list.
func (k *Kernel) recycle(it *item) {
	k.free = append(k.free, it)
}

// reap rebuilds the heap with live events only. Called once dropped
// items outnumber live ones, so the amortised cost per drop is O(1) and
// timers that are stopped far more often than they fire cannot hold the
// queue at its high-water mark. Reached from Timer.Stop or Reset, it may
// run inside a callback, so it settles the heap first.
func (k *Kernel) reap() {
	k.settle()
	live := k.queue[:0]
	for _, e := range k.queue {
		if e.it.live() {
			live = append(live, e)
		} else {
			k.recycle(e.it)
		}
	}
	for i := len(live); i < len(k.queue); i++ {
		k.queue[i] = heapEnt{}
	}
	k.queue = live
	// Heapify in place: sift down from the last internal node.
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		k.siftDown(i, live[i])
	}
	k.cancelled = 0
}

// observerBand is OR'ed into an observer event's ordering sequence.
// before() compares the band bit right after at, ahead of schedAt, lane
// and the sequence itself, and normal sequence numbers never reach 2^63,
// so every observer event at an instant sorts after every
// normally-scheduled event of that instant, while observer events keep
// their mutual (schedAt, lane, seq) order — no extra heap key needed.
const observerBand = uint64(1) << 63

// AtObserve schedules fn in the instant's observer band: it fires at
// time at, after every normally-scheduled event of that same instant,
// no matter when either was scheduled. Observers that must see the
// completed state of a timestep — telemetry scrapers, SLO evaluators,
// auditor sweeps — use it so their reads cannot depend on component
// wiring order. Events an observer schedules "now" run before the
// remaining observers of the instant (normal band beats observer band).
func (k *Kernel) AtObserve(at simtime.Time, fn Event) { k.schedule(at, observerBand, fn) }

// AfterObserve schedules fn in the observer band d after the current
// time.
func (k *Kernel) AfterObserve(d simtime.Duration, fn Event) { k.AtObserve(k.after(d), fn) }

// At schedules fn to run at the absolute time at. Scheduling in the past
// panics: that is always a logic bug in a discrete-event model. An event
// that may have to be called off or pushed back is a Timer.
func (k *Kernel) At(at simtime.Time, fn Event) { k.schedule(at, 0, fn) }

// After schedules fn to run d after the current time.
func (k *Kernel) After(d simtime.Duration, fn Event) { k.At(k.after(d), fn) }

// after returns the time d from now, which must not be in the past.
func (k *Kernel) after(d simtime.Duration) simtime.Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.now.Add(d)
}

// schedule validates the deadline and queues fn at at in the given band
// (0 or observerBand).
func (k *Kernel) schedule(at simtime.Time, band uint64, fn Event) {
	if fn == nil {
		panic("sim: nil event")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, k.now))
	}
	it := k.newItem()
	it.seq |= band
	it.fn = fn
	k.push(at, it)
}

// fire executes the live event at the root. Its slot stays as a vacant
// root until the callback's first schedule fills it, or is popped when
// the callback returns having scheduled nothing.
func (k *Kernel) fire() {
	e := k.queue[0]
	it := e.it
	k.now = e.at
	fn, afn, arg := it.fn, it.afn, it.arg
	it.clear()
	k.recycle(it) // safe: everything needed is extracted
	k.fired++
	k.vacant = true
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	k.settle()
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty.
func (k *Kernel) Step() bool {
	if !k.peek() {
		return false
	}
	k.fire()
	return true
}

// RunUntil fires events until the queue drains or the deadline passes.
// The clock is advanced to the deadline if the queue drains early, so a
// subsequent RunUntil continues from there.
func (k *Kernel) RunUntil(deadline simtime.Time) {
	// A group's global kernel is the run handle for the whole sharded
	// simulation: experiments drive it exactly like a plain kernel.
	if k.group != nil && k.shard < 0 {
		k.group.runUntil(deadline)
		return
	}
	for {
		if !k.peek() || k.queue[0].at > deadline {
			if k.now < deadline && deadline != simtime.Forever {
				k.now = deadline
			}
			return
		}
		k.fire()
	}
}

// Run fires events until the queue drains.
func (k *Kernel) Run() { k.RunUntil(simtime.Forever) }

// Rand returns a deterministic random stream unique to name. Two kernels
// with the same seed hand out identical streams for identical names, and
// streams for different names are independent, so adding a consumer never
// perturbs existing ones.
//
// The stream is seeded on its first draw, not here: a math/rand
// generator is about 4.9 KB and costs 1,841 LCG steps to seed, and a
// fleet hands out tens of thousands of streams (one per link, NIC and
// QP) of which most are never drawn. Every draw sequence is exactly
// that of rand.New(rand.NewSource(seed ^ fnv64(name))).
func (k *Kernel) Rand(name string) *rand.Rand {
	h := fnv64(name)
	return rand.New(&lazySource{seed: k.seed ^ int64(h)})
}

// lazySource is a rand.Source64 that defers building its generator to
// the first draw. Seed makes it lazy again, like reseeding a fresh
// source.
type lazySource struct {
	seed int64
	src  rand.Source64 // nil until the first draw after creation or Seed
}

func (s *lazySource) load() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.load().Int63() }
func (s *lazySource) Uint64() uint64  { return s.load().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// NamedSeq returns the next value (1, 2, 3, ...) of a kernel-scoped
// counter. Components use it to derive unique per-kernel stream names
// ("link/3"): unlike a process-global counter, two kernels built the same
// way in one process number their components identically, so same-seed
// runs stay byte-identical no matter how many simulations ran before.
func (k *Kernel) NamedSeq(name string) uint64 {
	// Group-scoped: a fabric split across shard kernels numbers its
	// links "link/1", "link/2", ... in construction order exactly like
	// the same fabric on one kernel, so every device keeps the same
	// random stream no matter the partitioning.
	if k.group != nil {
		k.group.seqs[name]++
		return k.group.seqs[name]
	}
	if k.seqs == nil {
		k.seqs = make(map[string]uint64)
	}
	k.seqs[name]++
	return k.seqs[name]
}

func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Ticker invokes fn every period until stopped: the watchdog polls of
// the switch and the NIC.
type Ticker struct {
	period simtime.Duration
	fn     Event
	timer  Timer
	live   bool
}

// NewTicker schedules fn every period, first firing one period from now.
func (k *Kernel) NewTicker(period simtime.Duration, fn Event) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{period: period, fn: fn, live: true}
	t.timer = Timer{k: k, fn: t.tick}
	t.timer.Reset(period)
	return t
}

func (t *Ticker) tick() {
	t.fn()
	// fn may have stopped us (Stop) or already re-armed us (Reset);
	// re-arming on top of a Reset would double the tick rate.
	if t.live && !t.timer.Armed() {
		t.timer.Reset(t.period)
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.live = false
	t.timer.Stop()
}

// Reset changes the period and restarts the ticker from now.
func (t *Ticker) Reset(period simtime.Duration) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t.period = period
	t.live = true
	t.timer.Reset(period)
}
