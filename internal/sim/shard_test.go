package sim

import (
	"fmt"
	"strings"
	"testing"

	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// pingNode is a synthetic two-party workload: each receipt logs
// (time, node) and volleys back across the group after delay.
type pingNode struct {
	k     *Kernel
	peer  *pingNode
	delay simtime.Duration
	left  int
	log   []string
}

func (n *pingNode) recv(arg any) {
	n.log = append(n.log, fmt.Sprintf("%d@%v", arg.(int), n.k.Now()))
	if n.left == 0 {
		return
	}
	n.left--
	n.k.ScheduleOnLane(n.peer.k, n.k.Now().Add(n.delay), 0, n.peer.recv, arg.(int)+1)
}

// runPingPong wires two nodes on the given kernels and returns their
// merged receive logs after running to the deadline.
func runPingPong(root, ka, kb *Kernel, delay simtime.Duration, rounds int) string {
	a := &pingNode{k: ka, delay: delay, left: rounds}
	b := &pingNode{k: kb, delay: delay, left: rounds}
	a.peer, b.peer = b, a
	ka.At(simtime.Time(delay), func() { a.recv(0) })
	root.RunUntil(simtime.Time(uint64(rounds+2) * uint64(delay)))
	return strings.Join(a.log, " ") + " | " + strings.Join(b.log, " ")
}

// TestShardPingPongMatchesSingleKernel drives the same volley on a
// plain kernel and across a two-shard group: logical event times and
// payloads must be identical, only the execution host differs.
func TestShardPingPongMatchesSingleKernel(t *testing.T) {
	const delay = 100 * simtime.Nanosecond

	k := NewRoot(7, 1)
	single := runPingPong(k, k, k, delay, 10)

	g := NewShardGroup(7, 2)
	g.SetLookahead(delay)
	sharded := runPingPong(g.Global(), g.Shard(0), g.Shard(1), delay, 10)

	if single != sharded {
		t.Fatalf("sharded ping-pong diverged:\nsingle:  %s\nsharded: %s", single, sharded)
	}
	if got := g.EventsFired(); got != 12 {
		t.Fatalf("EventsFired = %d, want 12", got)
	}
}

// TestShardMergeOrderDeterministic has two source shards fire volleys
// of same-instant events at a third; arrivals must execute in
// (srcShard, sendSeq) order regardless of worker interleaving.
func TestShardMergeOrderDeterministic(t *testing.T) {
	want := "s1#0 s1#1 s1#2 s2#0 s2#1 s2#2"
	for trial := 0; trial < 20; trial++ {
		g := NewShardGroup(3, 3)
		g.SetLookahead(90) // sends fire at t=10 for arrival at t=100: exactly the window
		var got []string
		sink := g.Shard(0)
		record := func(arg any) { got = append(got, arg.(string)) }
		for _, src := range []int{2, 1} { // schedule high shard first: order must not care
			src := src
			g.Shard(src).At(10, func() {
				for i := 0; i < 3; i++ {
					g.Shard(src).ScheduleOnLane(sink, 100, 0, record, fmt.Sprintf("s%d#%d", src, i))
				}
			})
		}
		g.Global().RunUntil(200)
		if s := strings.Join(got, " "); s != want {
			t.Fatalf("trial %d: merge order %q, want %q", trial, s, want)
		}
	}
}

// TestShardParallelMatchesSequential runs the identical scenario with
// and without a trace subscriber (which forces sequential windows) and
// requires byte-identical logs — the parallel barrier must be
// observationally invisible.
func TestShardParallelMatchesSequential(t *testing.T) {
	run := func(traced bool) string {
		g := NewShardGroup(11, 4)
		g.SetLookahead(100 * simtime.Nanosecond)
		if traced {
			g.Shard(0).Trace().Subscribe(telemetry.EvAll, nil, func(telemetry.Event) {})
		}
		logs := make([][]string, 4)
		// Each shard starts a chain that volleys around the ring with
		// mixed delays. fires[j] always executes on shard j and touches
		// only shard j's clock and log.
		fires := make([]func(any), 4)
		for j := 0; j < 4; j++ {
			j := j
			fires[j] = func(arg any) {
				n := arg.(int)
				k := g.Shard(j)
				logs[j] = append(logs[j], fmt.Sprintf("%d:%d@%v", j, n, k.Now()))
				if n >= 25 {
					return
				}
				dst := (j + 1) % 4
				k.ScheduleOnLane(g.Shard(dst), k.Now().Add(simtime.Duration(100+10*(n%3))*simtime.Nanosecond), 0, fires[dst], n+1)
			}
		}
		for j := 0; j < 4; j++ {
			g.Shard(j).ScheduleOnLane(g.Shard(j), simtime.Time(10*(j+1)), 0, fires[j], 0)
		}
		g.Global().RunUntil(simtime.Time(10 * simtime.Microsecond))
		var all []string
		for _, l := range logs {
			all = append(all, strings.Join(l, " "))
		}
		return strings.Join(all, "\n")
	}
	seq := run(true)
	for trial := 0; trial < 10; trial++ {
		if par := run(false); par != seq {
			t.Fatalf("trial %d: parallel run diverged from sequential:\nseq:\n%s\npar:\n%s", trial, par, seq)
		}
	}
}

// TestShardGlobalRunsAtBarrier checks the control kernel's view: a
// global event at instant T observes every shard having completed all
// work strictly before T, and none at or after T.
func TestShardGlobalRunsAtBarrier(t *testing.T) {
	g := NewShardGroup(5, 2)
	g.SetLookahead(100 * simtime.Nanosecond)
	counts := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		var tick func()
		tick = func() {
			counts[i]++
			if counts[i] < 100 {
				g.Shard(i).After(30*simtime.Nanosecond, tick)
			}
		}
		g.Shard(i).At(simtime.Time(30*simtime.Nanosecond), tick)
	}
	probes := 0
	g.Global().At(simtime.Time(90*30*simtime.Nanosecond+1), func() { // between shard ticks 90 and 91
		probes++
		for i, c := range counts {
			if c != 90 {
				t.Errorf("global probe saw shard %d count %d, want 90", i, c)
			}
		}
	})
	g.Global().RunUntil(simtime.Time(10 * simtime.Microsecond))
	if probes != 1 {
		t.Fatalf("global probe fired %d times, want 1", probes)
	}
	if counts[0] != 100 || counts[1] != 100 {
		t.Fatalf("final counts %v, want [100 100]", counts)
	}
}

// TestShardLookaheadViolationPanics: a cross-shard event landing inside
// an executed window must be caught loudly, not silently reordered.
func TestShardLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(1, 2)
	g.SetLookahead(100 * simtime.Nanosecond) // claimed window
	g.Shard(0).At(10, func() {
		// Actual handoff is only 1ns out — violates the claimed window.
		g.Shard(0).ScheduleOnLane(g.Shard(1), 11, 0, func(any) {}, nil)
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	g.Global().RunUntil(simtime.Time(simtime.Microsecond))
}

// TestShardToGlobalSchedulePanics: shard workers may not mutate the
// barrier-owned global heap.
func TestShardToGlobalSchedulePanics(t *testing.T) {
	g := NewShardGroup(1, 2)
	g.SetLookahead(100 * simtime.Nanosecond)
	g.Shard(0).At(10, func() {
		g.Shard(0).ScheduleOnLane(g.Global(), 500, 0, func(any) {}, nil)
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("shard→global schedule did not panic")
		}
	}()
	g.Global().RunUntil(simtime.Time(simtime.Microsecond))
}

// TestShardGroupSeqsAndAnnounceShared: NamedSeq counters and component
// announcements are group-scoped, so construction across shards numbers
// components exactly like a single kernel would.
func TestShardGroupSeqsAndAnnounceShared(t *testing.T) {
	g := NewShardGroup(9, 2)
	if got := []uint64{g.Shard(0).NamedSeq("link"), g.Shard(1).NamedSeq("link"), g.Global().NamedSeq("link")}; got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("NamedSeq not group-scoped: %v", got)
	}
	var seen []any
	g.Global().OnAnnounce(func(v any) { seen = append(seen, v) })
	g.Shard(1).Announce("from-shard-1")
	if len(seen) != 1 || seen[0] != "from-shard-1" {
		t.Fatalf("announce not group-scoped: %v", seen)
	}
}

// observeScenario runs one instant T on the given kernels: kb bumps a
// counter with a normal event at T, and the root reads it from two
// observer-band events at T. The first observer also schedules a normal
// event at T on kb (a second bump) and one on the root; both must run
// before the second observer, as on a single kernel.
func observeScenario(root, kb *Kernel) string {
	const at = simtime.Time(500 * simtime.Nanosecond)
	count := 0
	bump := func(any) { count++ }
	var log []string
	kb.ScheduleOnLane(kb, at, 0, bump, nil)
	root.AtObserve(at, func() {
		log = append(log, fmt.Sprintf("O1 saw %d", count))
		root.ScheduleOnLane(kb, at, 0, bump, nil)
		root.At(at, func() { log = append(log, "N") })
	})
	root.AtObserve(at, func() { log = append(log, fmt.Sprintf("O2 saw %d", count)) })
	root.RunUntil(simtime.Time(simtime.Microsecond))
	return strings.Join(log, ", ")
}

// TestShardObserverSeesCompletedInstant: a global observer-band event
// at T runs after every shard has run its events at T, as it runs after
// every normal event of T on one kernel, and normal events an observer
// schedules at T run before the instant's remaining observers.
func TestShardObserverSeesCompletedInstant(t *testing.T) {
	want := "O1 saw 1, N, O2 saw 2"
	k := NewKernel(3)
	if got := observeScenario(k, k); got != want {
		t.Fatalf("single kernel: %s, want %s", got, want)
	}
	for _, n := range []int{1, 2, 4} {
		g := NewShardGroup(3, n)
		g.SetLookahead(100 * simtime.Nanosecond)
		if got := observeScenario(g.Global(), g.Shard(n-1)); got != want {
			t.Errorf("%d shards: %s, want %s", n, got, want)
		}
	}
}
