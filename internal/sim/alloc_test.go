package sim

// Allocation guards for the kernel hot path. The scheduler's perf win
// comes from *not* allocating in steady state — item free-list, in-slice
// heap entries, pointer-shaped ArgEvent payloads, pooled packets — and
// these tests pin that property with testing.AllocsPerRun so a future
// refactor that quietly reintroduces a per-event allocation fails CI
// rather than only showing up in benchmark drift.

import (
	"math/rand"
	"testing"
	"unsafe"

	"rocesim/internal/simtime"
)

// TestHeapLayoutSizes pins the queue's memory layout: a 16-byte slot
// puts a node's four children in one 64-byte cache line, and an item of
// at most 64 bytes stays in the 64-byte allocation size class.
func TestHeapLayoutSizes(t *testing.T) {
	if s := unsafe.Sizeof(heapEnt{}); s != 16 {
		t.Errorf("heap slot is %d bytes, want 16", s)
	}
	if s := unsafe.Sizeof(item{}); s > 64 {
		t.Errorf("item is %d bytes, want at most 64", s)
	}
}

// TestScheduleFireZeroAlloc pins the steady-state schedule→fire cycle
// at zero allocations once the free-list is warm.
func TestScheduleFireZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	var fn Event = func() {}

	// Warm up: grow the heap slice and populate the item free-list.
	for i := 0; i < 64; i++ {
		k.After(simtime.Nanosecond, fn)
	}
	k.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		k.After(simtime.Nanosecond, fn)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocated %.1f times per run, want 0", allocs)
	}
}

// TestRescheduleInsideEventZeroAlloc pins a self-rescheduling chain —
// the callback's schedule refills its own firing slot — at zero
// allocations per event once warm, above a few far-future events so the
// refilled root has children to sift past.
func TestRescheduleInsideEventZeroAlloc(t *testing.T) {
	const chain = 100
	k := NewKernel(1)
	nop := func() {}
	for i := 0; i < 15; i++ {
		k.After(simtime.Second, nop)
	}
	n := 0
	var fn Event
	fn = func() {
		n++
		if n%chain != 0 {
			k.After(simtime.Nanosecond, fn)
		}
	}
	run := func() {
		k.After(simtime.Nanosecond, fn)
		k.RunUntil(k.Now().Add(chain * simtime.Nanosecond))
	}
	run() // warm

	allocs := testing.AllocsPerRun(100, run)
	if allocs != 0 {
		t.Fatalf("a %d-event self-rescheduling chain allocated %.1f times, want 0", chain, allocs)
	}
	if n != 102*chain || k.Pending() != 15 {
		t.Fatalf("fired %d chain events with %d pending, want %d and 15", n, k.Pending(), 102*chain)
	}
}

// TestArgEventZeroAlloc pins ScheduleOnLane with a pointer payload at
// zero allocations: pointers stored in an interface don't box, which is
// what lets packet delivery reuse one resident ArgEvent instead of a
// closure per hop.
func TestArgEventZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	type payload struct{ n int }
	p := &payload{}
	var fn ArgEvent = func(arg any) { arg.(*payload).n++ }

	for i := 0; i < 64; i++ {
		k.ScheduleOnLane(k, k.Now().Add(simtime.Nanosecond), 0, fn, p)
	}
	k.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		k.ScheduleOnLane(k, k.Now().Add(simtime.Nanosecond), 0, fn, p)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ScheduleOnLane allocated %.1f times per run, want 0", allocs)
	}
	if p.n == 0 {
		t.Fatal("ArgEvent never fired")
	}
}

// TestTimerRearmZeroAlloc pins the lazy timer's steady state at zero
// allocations: a Reset to a later deadline, a ResetAt to an earlier one
// (which replaces the queued item), a Stop and the Reset after it, all
// between fires that re-key the timer's item at the top of the heap.
func TestTimerRearmZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	var nop Event = func() {}
	tm := k.NewTimer(nop)
	cycle := func() {
		tm.Reset(simtime.Microsecond)
		k.After(simtime.Nanosecond, nop)
		tm.Reset(2 * simtime.Microsecond)
		tm.ResetAt(k.Now().Add(500 * simtime.Nanosecond))
		k.RunUntil(k.Now().Add(100 * simtime.Nanosecond))
		tm.Stop()
		tm.Reset(simtime.Microsecond)
		k.Run()
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs != 0 {
		t.Fatalf("timer reset/stop cycle allocated %.1f times per run, want 0", allocs)
	}
}

// TestPacketPoolZeroAlloc pins the packet round-trip — Get, attach the
// full RoCE header stack, Put — at zero allocations once the pool is
// warm. This is the per-data-packet cost in transport.newDataPacket.
func TestPacketPoolZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	pool := k.PacketPool()

	// Warm: one cold allocation populates the free list.
	pool.Put(pool.Get())

	allocs := testing.AllocsPerRun(1000, func() {
		p := pool.Get()
		p.AttachIP()
		p.AttachUDP()
		p.AttachBTH()
		p.AttachRETH()
		pool.Put(p)
	})
	if allocs != 0 {
		t.Fatalf("pooled packet round-trip allocated %.1f times per run, want 0", allocs)
	}
	if pool.News != 1 {
		t.Fatalf("pool cold-allocated %d packets, want exactly 1", pool.News)
	}
}

// TestCancelStressFreeList hammers the free-list/reap interaction:
// thousands of timers armed at random offsets, a large random subset
// stopped (forcing lazy-deletion reaps mid-run), items recycled and
// re-armed round after round. Exactly the timers not stopped must fire,
// in timestamp order, and a Stop of a last-round timer, whose item now
// serves this round, must do nothing.
func TestCancelStressFreeList(t *testing.T) {
	const rounds = 20
	const perRound = 500

	k := NewKernel(42)
	rng := rand.New(rand.NewSource(7))

	var prev []*Timer
	for round := 0; round < rounds; round++ {
		fired := make(map[int]bool, perRound)
		timers := make([]*Timer, perRound)
		ids := make([]int, perRound)
		var lastAt simtime.Time
		for i := 0; i < perRound; i++ {
			id := i
			ids[i] = id
			at := k.Now().Add(simtime.Duration(1+rng.Intn(1000)) * simtime.Nanosecond)
			timers[i] = k.NewTimer(func() {
				if k.Now() < lastAt {
					t.Errorf("round %d: timer %d fired at %v after %v", round, id, k.Now(), lastAt)
				}
				lastAt = k.Now()
				fired[id] = true
			})
			timers[i].ResetAt(at)
		}

		// The previous round's timers, fired or stopped, must be inert:
		// their items have been recycled to this round's timers, which
		// must all still fire or stop as told below.
		for i, tm := range prev {
			if tm.Armed() || tm.Stop() {
				t.Fatalf("round %d: disarmed timer %d of the last round is armed or stopped", round, i)
			}
		}

		// Stop ~60% so the dropped count crosses the reap threshold
		// (cancelled > len(queue)/2) while events remain.
		cancelled := make(map[int]bool, perRound)
		for i := 0; i < perRound; i++ {
			if rng.Intn(10) < 6 {
				if !timers[i].Stop() {
					t.Fatalf("round %d: stop of armed timer %d failed", round, i)
				}
				cancelled[i] = true
			}
		}

		k.Run()

		for i := 0; i < perRound; i++ {
			if cancelled[i] && fired[i] {
				t.Fatalf("round %d: stopped timer %d fired", round, i)
			}
			if !cancelled[i] && !fired[i] {
				t.Fatalf("round %d: armed timer %d never fired", round, i)
			}
		}
		if k.Pending() != 0 {
			t.Fatalf("round %d: %d events pending after Run", round, k.Pending())
		}
		prev = timers
	}
}
