// Package link models full-duplex Ethernet links and the egress machinery
// both switches and NICs share: per-priority queues, deficit-round-robin
// scheduling, PFC-aware pacing, and a control path that lets pause frames
// bypass data queues (PFC frames are never themselves subject to PFC).
//
// The transmit path is a batched self-scheduling drain loop: one resident
// completion event per egress re-arms itself across a burst, so a busy
// queue holds exactly one pending kernel event and one in-flight frame
// slot no matter how deep its backlog — draining N frames performs zero
// allocations. Queues are power-of-two rings (Ring), so dequeue is O(1)
// instead of the O(n) slice shuffle a naive FIFO pays.
package link

import (
	"fmt"
	"math/rand"

	"rocesim/internal/packet"
	"rocesim/internal/pfc"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
)

// Endpoint is anything a link can deliver frames to.
type Endpoint interface {
	// Receive is called when a frame fully arrives at the endpoint's
	// port.
	Receive(port int, p *packet.Packet)
}

// KernelOwner is implemented by endpoints that run on their own kernel
// (NICs and switches). Attach consults it so a link knows which shard
// kernel owns each of its ends; a link whose ends live on different
// shards routes deliveries through the group's cross-shard path.
type KernelOwner interface {
	Kernel() *sim.Kernel
}

// FrameOverhead is the per-frame preamble + start delimiter + inter-frame
// gap cost on the wire, in bytes.
const FrameOverhead = 20

// Link is a full-duplex point-to-point cable. Each side serializes
// independently (through an Egress); the link adds propagation delay and
// delivers to the peer.
type Link struct {
	k     *sim.Kernel
	rate  simtime.Rate
	delay simtime.Duration
	rng   *rand.Rand
	id    uint64 // per-kernel link number; seeds the boundary FCS hash
	ends  [2]struct {
		ep   Endpoint
		port int
	}
	// endK[side] is the kernel owning side's endpoint (defaults to the
	// construction kernel). On a sharded run the two sides of a boundary
	// link differ, and Deliver crosses shards through the group.
	endK [2]*sim.Kernel
	// fcsDraws counts wire-error draws per sending side, driving the
	// order-independent corruption hash on cross-shard links;
	// fcsErrSide counts the corrupted frames it discards.
	fcsDraws   [2]uint64
	fcsErrSide [2]uint64
	// deliver[side] is the resident arrival callback for frames sent BY
	// side: scheduling it with the packet as arg allocates nothing.
	deliver [2]sim.ArgEvent
	// FCSErrorRate is the probability a frame is corrupted on the wire
	// and discarded by the receiver's CRC check — the paper's "packet
	// losses can still happen for various other reasons, including FCS
	// errors". Zero disables.
	FCSErrorRate float64
	// FCSErrors counts frames lost to corruption.
	FCSErrors uint64
	// Down simulates cable pull: frames in either direction are silently
	// lost. Prefer SetDown, which also notifies OnCarrier — writing the
	// field directly changes the data path without telling the control
	// plane, like a cable that fails without the PHY noticing.
	Down bool
	// OnCarrier, when set, runs after every carrier transition made
	// through SetDown. The topology layer uses it to withdraw routes
	// through dead cables and restore them on link-up.
	OnCarrier func(down bool)
	// Delivered counts frames per direction (index = sending side).
	Delivered [2]uint64
	// Tap, when set, observes every frame put on the wire (both
	// directions) — the hook pcap captures attach to.
	Tap func(p *packet.Packet)
}

// New creates a link with the given rate and one-way propagation delay.
func New(k *sim.Kernel, rate simtime.Rate, delay simtime.Duration) *Link {
	if rate <= 0 {
		panic("link: non-positive rate")
	}
	// Each link gets its own deterministic stream, numbered per kernel;
	// construction order is deterministic in a simulation, so runs
	// reproduce exactly — even when several kernels share one process.
	id := k.NamedSeq("link")
	l := &Link{k: k, rate: rate, delay: delay, id: id, rng: k.Rand(fmt.Sprintf("link/%d", id))}
	l.endK[0], l.endK[1] = k, k
	for side := 0; side < 2; side++ {
		peer := &l.ends[1-side]
		l.deliver[side] = func(arg any) {
			peer.ep.Receive(peer.port, arg.(*packet.Packet))
		}
	}
	return l
}

// Attach connects side (0 or 1) to an endpoint's port. Endpoints that
// own a kernel (NICs, switches) bind their side of the wire to it, so a
// link wired across two shards knows where each direction's arrival
// event belongs.
func (l *Link) Attach(side int, ep Endpoint, port int) {
	l.ends[side].ep = ep
	l.ends[side].port = port
	if ko, ok := ep.(KernelOwner); ok {
		if k := ko.Kernel(); k != nil {
			l.endK[side] = k
		}
	}
}

// EndKernel returns the kernel owning side's endpoint.
func (l *Link) EndKernel(side int) *sim.Kernel { return l.endK[side] }

// CrossShard reports whether the link's two ends live on different
// shard kernels.
func (l *Link) CrossShard() bool { return l.endK[0] != l.endK[1] }

// Rate returns the link speed.
func (l *Link) Rate() simtime.Rate { return l.rate }

// SetDown changes the cable's carrier state and notifies OnCarrier on
// transitions. Repeated writes of the same state are no-ops.
func (l *Link) SetDown(down bool) {
	if l.Down == down {
		return
	}
	l.Down = down
	if l.OnCarrier != nil {
		l.OnCarrier(down)
	}
}

// Peer returns the endpoint and port attached opposite to side.
func (l *Link) Peer(side int) (Endpoint, int) {
	p := l.ends[1-side]
	return p.ep, p.port
}

// Delay returns the one-way propagation delay.
func (l *Link) Delay() simtime.Duration { return l.delay }

// Deliver schedules p's arrival at the peer of side after the propagation
// delay. Serialization time is the sender's job (see Egress). It runs in
// the sending side's kernel context; when the receiving side lives on a
// different shard the arrival rides the group's cross-shard path, which
// is legal because the propagation delay of every boundary link is at
// least the group's lookahead window.
func (l *Link) Deliver(side int, p *packet.Packet) {
	if l.Tap != nil {
		l.Tap(p)
	}
	src := l.endK[side]
	if l.Down {
		src.PacketPool().Put(p) // lost on the dead wire
		return
	}
	if l.FCSErrorRate > 0 && l.corrupted(side) {
		src.PacketPool().Put(p) // corrupted on the wire; receiver CRC discards it
		return
	}
	if l.ends[1-side].ep == nil {
		panic(fmt.Sprintf("link: side %d has no peer attached", 1-side))
	}
	l.Delivered[side]++
	// The lane key canonicalizes same-instant deliveries from distinct
	// links into stable wire order — like a switch sweeping its ingress
	// ports — so the fire order is independent of shard partitioning.
	src.ScheduleOnLane(l.endK[1-side], src.Now().Add(l.delay), l.id<<1|uint64(side), l.deliver[side], p)
}

// corrupted draws the wire-error experiment for one frame. Same-shard
// links keep the historical shared rand stream (preserving existing
// goldens byte-for-byte). A cross-shard link cannot share one stream
// between two concurrent senders, so each direction draws from an
// order-independent counter hash over (seed, link id, side, frame#);
// the draw depends only on how many frames that side has sent, never on
// how the two directions interleave.
func (l *Link) corrupted(side int) bool {
	if !l.CrossShard() {
		if l.rng.Float64() < l.FCSErrorRate {
			l.FCSErrors++
			return true
		}
		return false
	}
	l.fcsDraws[side]++
	x := uint64(l.k.Seed()) ^ l.id*0x9e3779b97f4a7c15 ^ uint64(side+1)<<62 ^ l.fcsDraws[side]
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if float64(x>>11)/(1<<53) < l.FCSErrorRate {
		l.fcsErrSide[side]++
		return true
	}
	return false
}

// FCSErrorCount totals corrupted frames across both the shared-stream
// and per-side paths.
func (l *Link) FCSErrorCount() uint64 {
	return l.FCSErrors + l.fcsErrSide[0] + l.fcsErrSide[1]
}

// Item is one frame queued at an egress, with the bookkeeping needed to
// release shared-buffer accounting when it leaves the device. It is 16
// bytes: it is copied on every enqueue, dequeue and transmit, and a
// deep switch buffer holds hundreds of thousands of them.
type Item struct {
	P *packet.Packet
	// Len is P's wire length, computed once per hop: the queue's byte
	// counts, DWRR, serialization and the switch's buffer release all
	// read it here. Enqueue fills it in when it is zero.
	Len int32
	// IngressPort is the switch port whose buffer accounting bucket the
	// frame was admitted under, with priority group Pri; -1 for locally
	// generated frames that were never admitted.
	IngressPort int16
	Pri         int8
}

// Egress is one transmit direction of a device port: eight per-priority
// FIFO queues drained by deficit round robin, gated per priority by
// received PFC state, plus an absolute-priority control queue for pause
// frames. The queues and the scheduler state live in a block allocated
// on first use, so an egress that never sends stays small.
type Egress struct {
	k    *sim.Kernel
	link *Link
	side int

	q *queueBlock // nil until the first Enqueue, EnqueueControl or SetWeight

	// Pause is the PFC state received from the peer, gating transmission
	// per priority.
	Pause *pfc.PauseState

	// OnTransmit fires when a frame has fully serialized onto the wire —
	// the moment a switch releases the frame's buffer accounting.
	OnTransmit func(Item)

	// Blocked, when set, freezes all data transmission regardless of
	// queue or pause state (used to model dead/unplugged devices).
	Blocked bool

	busy     bool
	inflight Item       // the frame currently serializing (valid while busy)
	txDone   sim.Event  // resident completion callback, re-armed per frame
	retry    *sim.Timer // pause-expiry wake-up, allocated on its first arm
	TxFrames uint64
	TxBytes  uint64
	// TxByPri counts transmitted data frames per priority.
	TxByPri [8]uint64
}

// queueBlock is an egress's transmit backlog and DWRR scheduler state.
type queueBlock struct {
	data    [8]Ring[Item]
	bytes   [8]int
	total   int        // sum of bytes: frames are never empty, so 0 means no data queued
	control Ring[Item] // pause frames; never PFC-gated

	weights [8]int
	deficit [8]int
	rrNext  int
	cur     int // queue currently holding the DRR service turn (-1: none)
}

// NewEgress creates an egress transmitting on side of l with equal DWRR
// weights.
func NewEgress(k *sim.Kernel, l *Link, side int) *Egress {
	e := &Egress{k: k, link: l, side: side, Pause: pfc.NewPauseState(l.Rate())}
	e.txDone = e.finishTx
	return e
}

// queues returns the egress's queue block, allocating it on first use.
func (e *Egress) queues() *queueBlock {
	if e.q == nil {
		e.q = &queueBlock{cur: -1}
		for i := range e.q.weights {
			e.q.weights[i] = 1
		}
	}
	return e.q
}

// SetWeight sets the DWRR weight for a priority (>=1). Heavier classes
// drain proportionally more bytes per round — how the paper reserves
// bandwidth for the TCP class vs. the two RDMA classes.
func (e *Egress) SetWeight(pri, w int) {
	if w < 1 {
		panic("link: DWRR weight must be >= 1")
	}
	e.queues().weights[pri] = w
}

// QueueBytes returns the bytes queued at priority pri.
func (e *Egress) QueueBytes(pri int) int {
	if e.q == nil {
		return 0
	}
	return e.q.bytes[pri]
}

// TotalQueued returns all queued data bytes.
func (e *Egress) TotalQueued() int {
	if e.q == nil {
		return 0
	}
	return e.q.total
}

// QueueLen returns the number of frames queued at priority pri.
func (e *Egress) QueueLen(pri int) int {
	if e.q == nil {
		return 0
	}
	return e.q.data[pri].Len()
}

// Purge removes and returns every queued frame at priority pri, oldest
// first — used by the switch watchdog when it discards lossless traffic
// for a tripped port, and by a switch powering off. The caller releases
// the frames' buffer accounting in the order returned, which fixes the
// order of the XONs that follow.
func (e *Egress) Purge(pri int) []Item {
	if e.q == nil {
		return nil
	}
	items := e.q.data[pri].Purge()
	e.q.total -= e.q.bytes[pri]
	e.q.bytes[pri] = 0
	return items
}

// Enqueue adds a data frame at the given priority.
func (e *Egress) Enqueue(it Item) {
	if it.Pri < 0 || it.Pri > 7 {
		panic(fmt.Sprintf("link: priority %d", it.Pri))
	}
	if it.Len == 0 {
		it.Len = int32(it.P.WireLen())
	}
	q := e.queues()
	q.data[it.Pri].Push(it)
	q.bytes[it.Pri] += int(it.Len)
	q.total += int(it.Len)
	e.kick()
}

// EnqueueControl queues a pause frame; control frames preempt all data
// and ignore PFC state.
func (e *Egress) EnqueueControl(p *packet.Packet) {
	e.queues().control.Push(Item{P: p, Pri: -1, IngressPort: -1, Len: int32(p.WireLen())})
	e.kick()
}

// Kick re-arms the transmit loop; owners call it after updating Pause
// state (e.g. on receiving an XON).
func (e *Egress) Kick() { e.kick() }

// Link returns the wire this egress transmits on (for taps and
// monitoring).
func (e *Egress) Link() *Link { return e.link }

func (e *Egress) kick() {
	if e.busy {
		return
	}
	e.trySend()
}

// trySend transmits the next eligible frame, if any. An egress without
// a queue block has nothing to send.
func (e *Egress) trySend() {
	q := e.q
	if e.busy || q == nil {
		return
	}
	now := e.k.Now()

	// Control frames first: pause must get out even when we are paused.
	if q.control.Len() > 0 {
		e.transmit(q.control.Pop())
		return
	}
	if e.Blocked {
		return
	}

	// DWRR over non-empty, non-paused priorities. pickDWRR runs even on
	// empty queues: it hands back the service turn of a queue that ran dry.
	pri := e.pickDWRR(q, now)
	if pri < 0 {
		if q.total > 0 { // with nothing queued there is no pause to wait out
			e.armRetry(q, now)
		}
		return
	}
	it := q.data[pri].Pop()
	q.bytes[pri] -= int(it.Len)
	q.total -= int(it.Len)
	e.transmit(it)
}

// pickDWRR selects the next priority to serve with deficit round robin,
// honoring pause state: a queue acquires the service turn, gains one
// quantum (scaled by its weight), and keeps the turn until its deficit
// can no longer cover its head frame. Returns -1 when nothing is
// eligible.
func (e *Egress) pickDWRR(q *queueBlock, now simtime.Time) int {
	const quantumPerWeight = 1600 // covers one MTU frame per weight unit
	for visits := 0; visits < 64; visits++ {
		if q.cur < 0 {
			found := -1
			for i := 0; i < 8; i++ {
				pri := (q.rrNext + i) % 8
				if q.data[pri].Len() > 0 && !e.Pause.Paused(now, pri) {
					found = pri
					break
				}
			}
			if found < 0 {
				return -1
			}
			q.cur = found
			q.rrNext = (found + 1) % 8
			q.deficit[found] += quantumPerWeight * q.weights[found]
		}
		pri := q.cur
		if q.data[pri].Len() > 0 && !e.Pause.Paused(now, pri) {
			if head := int(q.data[pri].Front().Len); q.deficit[pri] >= head {
				q.deficit[pri] -= head
				return pri
			}
		}
		if q.data[pri].Len() == 0 {
			q.deficit[pri] = 0 // idle classes must not hoard credit
		}
		q.cur = -1
	}
	return -1
}

// armRetry schedules a wake-up at the earliest pause expiry among paused,
// non-empty priorities (explicit XON kicks arrive via Kick).
func (e *Egress) armRetry(q *queueBlock, now simtime.Time) {
	var earliest simtime.Time = simtime.Forever
	for pri := 0; pri < 8; pri++ {
		if q.data[pri].Len() == 0 {
			continue
		}
		if at := e.Pause.ResumeAt(pri); at.After(now) && at.Before(earliest) {
			earliest = at
		}
	}
	if earliest == simtime.Forever {
		return
	}
	if e.retry == nil {
		e.retry = e.k.NewTimer(e.kick)
	}
	e.retry.ResetAt(earliest)
}

// transmit starts serializing one frame: the resident completion event
// is armed for the serialization end. While a burst drains, transmit and
// finishTx alternate on the same heap slot — one live event, zero
// allocations per frame.
func (e *Egress) transmit(it Item) {
	e.busy = true
	e.inflight = it
	tx := e.link.Rate().Transmission(int(it.Len) + FrameOverhead)
	e.k.After(tx, e.txDone)
}

// finishTx completes the in-flight frame and continues the drain loop.
func (e *Egress) finishTx() {
	it := e.inflight
	e.inflight = Item{} // release the packet reference
	e.busy = false
	e.TxFrames++
	e.TxBytes += uint64(it.Len)
	if it.Pri >= 0 {
		e.TxByPri[it.Pri]++
	}
	if e.OnTransmit != nil {
		e.OnTransmit(it)
	}
	e.link.Deliver(e.side, it.P)
	e.trySend()
}
