package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"rocesim/internal/simtime"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30*simtime.Time(simtime.Nanosecond), func() { got = append(got, 3) })
	k.At(10*simtime.Time(simtime.Nanosecond), func() { got = append(got, 1) })
	k.At(20*simtime.Time(simtime.Nanosecond), func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order: %v", got)
	}
	if k.Now() != 30*simtime.Time(simtime.Nanosecond) {
		t.Fatalf("clock: %v", k.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var got []int
	at := simtime.Time(5 * simtime.Microsecond)
	for i := 0; i < 100; i++ {
		i := i
		k.At(at, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got[:i+1])
		}
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			k.After(simtime.Nanosecond, chain)
		}
	}
	k.After(simtime.Nanosecond, chain)
	k.Run()
	if count != 5 {
		t.Fatalf("chain fired %d times", count)
	}
	if k.Now() != simtime.Time(5*simtime.Nanosecond) {
		t.Fatalf("clock %v", k.Now())
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.NewTimer(func() { fired = true })
	tm.Reset(simtime.Microsecond)
	if !tm.Armed() {
		t.Fatal("should be armed")
	}
	if !tm.Stop() {
		t.Fatal("first stop should succeed")
	}
	if tm.Stop() {
		t.Fatal("second stop should be a no-op")
	}
	k.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(simtime.Time(simtime.Microsecond), func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(0, func() {})
	})
	k.Run()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	for i := 1; i <= 10; i++ {
		k.At(simtime.Time(i)*simtime.Time(simtime.Microsecond), func() { fired++ })
	}
	k.RunUntil(simtime.Time(5 * simtime.Microsecond))
	if fired != 5 {
		t.Fatalf("fired %d, want 5", fired)
	}
	if k.Now() != simtime.Time(5*simtime.Microsecond) {
		t.Fatalf("clock %v", k.Now())
	}
	// Continue.
	k.RunUntil(simtime.Time(20 * simtime.Microsecond))
	if fired != 10 {
		t.Fatalf("fired %d, want 10", fired)
	}
	// Clock advances to deadline even with empty queue.
	if k.Now() != simtime.Time(20*simtime.Microsecond) {
		t.Fatalf("clock %v", k.Now())
	}
}

func TestDeterministicRandStreams(t *testing.T) {
	a := NewKernel(42).Rand("nic0")
	b := NewKernel(42).Rand("nic0")
	c := NewKernel(42).Rand("nic1")
	same, diff := true, false
	for i := 0; i < 100; i++ {
		x, y, z := a.Int63(), b.Int63(), c.Int63()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Fatal("same name+seed must give identical streams")
	}
	if !diff {
		t.Fatal("different names must give independent streams")
	}
}

// TestRandStreamMatchesEagerSource pins the stream a kernel hands out
// to rand.New(rand.NewSource(seed ^ fnv64(name))) draw for draw, across
// every rand.Rand method family and a mid-stream reseed.
func TestRandStreamMatchesEagerSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		for _, name := range []string{"", "nic0", "link/3", "qp/srv-0-0-1/17"} {
			got := NewKernel(seed).Rand(name)
			want := rand.New(rand.NewSource(seed ^ int64(fnv64(name))))
			for i := 0; i < 400; i++ {
				if i == 250 {
					got.Seed(seed + 99)
					want.Seed(seed + 99)
				}
				var g, w any
				switch i % 10 {
				case 0:
					g, w = got.Int63(), want.Int63()
				case 1:
					g, w = got.Uint64(), want.Uint64()
				case 2:
					g, w = got.Float64(), want.Float64()
				case 3:
					g, w = got.Intn(1000), want.Intn(1000)
				case 4:
					g, w = got.Int63n(1<<40+3), want.Int63n(1<<40+3)
				case 5:
					g, w = fmt.Sprint(got.Perm(7)), fmt.Sprint(want.Perm(7))
				case 6:
					a, b := []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3, 4}
					got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
					want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
					g, w = fmt.Sprint(a), fmt.Sprint(b)
				case 7:
					g, w = got.NormFloat64(), want.NormFloat64()
				case 8:
					g, w = got.ExpFloat64(), want.ExpFloat64()
				case 9:
					a, b := make([]byte, 11), make([]byte, 11)
					got.Read(a)
					want.Read(b)
					g, w = fmt.Sprint(a), fmt.Sprint(b)
				}
				if g != w {
					t.Fatalf("seed %d stream %q draw %d: got %v, want %v", seed, name, i, g, w)
				}
			}
		}
	}
}

// TestUndrawnStreamIsSmall guards seeding on first draw: a stream that
// is handed out but never drawn must not carry a seeded generator
// (about 4.9 KB), since large fleets hand out tens of thousands of
// streams and draw from few.
func TestUndrawnStreamIsSmall(t *testing.T) {
	const n = 1000
	k := NewKernel(1)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("link/%d", i)
	}
	streams := make([]*rand.Rand, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, name := range names {
		streams[i] = k.Rand(name)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per >= 1024 {
		t.Fatalf("an undrawn stream allocates %.0f bytes, want < 1024", per)
	}
	if streams[0].Int63() == streams[1].Int63() {
		t.Fatal("distinct names drew the same first value")
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	n := 0
	tk := k.NewTicker(simtime.Microsecond, func() {
		n++
		if n == 3 {
			// Stop from inside the callback.
		}
	})
	k.RunUntil(simtime.Time(3*simtime.Microsecond) + 1)
	tk.Stop()
	k.RunUntil(simtime.Time(10 * simtime.Microsecond))
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var tk *Ticker
	tk = k.NewTicker(simtime.Microsecond, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	k.Run()
	if n != 2 {
		t.Fatalf("fired %d, want 2", n)
	}
}

func TestTickerReset(t *testing.T) {
	k := NewKernel(1)
	var times []simtime.Time
	tk := k.NewTicker(simtime.Microsecond, func() {
		times = append(times, k.Now())
	})
	k.RunUntil(simtime.Time(simtime.Microsecond))
	tk.Reset(2 * simtime.Microsecond)
	k.RunUntil(simtime.Time(5 * simtime.Microsecond))
	tk.Stop()
	if len(times) != 3 {
		t.Fatalf("ticks: %v", times)
	}
	if times[1] != simtime.Time(3*simtime.Microsecond) {
		t.Fatalf("reset tick at %v", times[1])
	}
}

func TestEventsFiredCount(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 7; i++ {
		k.After(simtime.Nanosecond, func() {})
	}
	k.Run()
	if k.EventsFired() != 7 {
		t.Fatalf("fired %d", k.EventsFired())
	}
}

// Property: any set of scheduled times is fired in sorted order.
func TestOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(7)
		var fired []simtime.Time
		for _, d := range delays {
			at := simtime.Time(d) * simtime.Time(simtime.Nanosecond)
			k.At(at, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCountsOnlyLiveEvents(t *testing.T) {
	k := NewKernel(1)
	var ts []*Timer
	for i := 0; i < 10; i++ {
		tm := k.NewTimer(func() {})
		tm.Reset(simtime.Microsecond)
		ts = append(ts, tm)
	}
	if k.Pending() != 10 {
		t.Fatalf("pending = %d, want 10", k.Pending())
	}
	ts[0].Stop()
	ts[1].Stop()
	if k.Pending() != 8 {
		t.Fatalf("pending after 2 stops = %d, want 8", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("pending after run = %d, want 0", k.Pending())
	}
}

func TestCancelledEventsAreReaped(t *testing.T) {
	// A timer armed and stopped over and over pushes a fresh item per
	// arm and drops it per stop; the dropped items must not accumulate
	// in the heap.
	k := NewKernel(1)
	keep := k.NewTimer(func() {})
	keep.Reset(simtime.Second)
	tm := k.NewTimer(func() {})
	for i := 0; i < 10000; i++ {
		tm.Reset(simtime.Millisecond)
		tm.Stop()
	}
	if !keep.Armed() {
		t.Fatal("reap dropped a live event")
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	// The heap itself must have been compacted, not just the count.
	if len(k.queue) > 2 {
		t.Fatalf("heap holds %d items after stopping 10000, want <=2", len(k.queue))
	}
	k.Run()
	if k.EventsFired() != 1 {
		t.Fatalf("fired %d, want 1", k.EventsFired())
	}
}

func TestReapPreservesOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	var stops []*Timer
	// Interleave live events and timers to be stopped at mixed times.
	for i := 0; i < 50; i++ {
		i := i
		at := simtime.Time(i+1) * simtime.Time(simtime.Microsecond)
		k.At(at, func() { got = append(got, i) })
		tm := k.NewTimer(func() { t.Error("stopped timer fired") })
		tm.ResetAt(at)
		stops = append(stops, tm)
	}
	for _, tm := range stops {
		tm.Stop() // crosses the reap threshold repeatedly
	}
	k.Run()
	if len(got) != 50 {
		t.Fatalf("fired %d live events, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reap broke ordering: %v", got[:i+1])
		}
	}
}

func TestCancelFromInsideOwnEvent(t *testing.T) {
	// A timer stopping itself while its callback runs: by then it counts
	// as fired, so Stop must report false and must not corrupt the
	// dropped-item accounting.
	k := NewKernel(1)
	var tm *Timer
	ran := false
	tm = k.NewTimer(func() {
		ran = true
		if tm.Stop() {
			t.Error("self-stop from inside the callback reported true")
		}
		if tm.Armed() {
			t.Error("timer still armed while its callback runs")
		}
	})
	tm.Reset(simtime.Microsecond)
	k.Run()
	if !ran {
		t.Fatal("timer did not fire")
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after self-stop, want 0", k.Pending())
	}
	// Accounting must survive further scheduling.
	k.After(simtime.Microsecond, func() {})
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
}

func TestTickerResetInsideCallback(t *testing.T) {
	// Reset called from inside the tick must not double-schedule: the
	// tick epilogue used to reschedule on top of Reset's new handle,
	// doubling the tick rate.
	k := NewKernel(1)
	var times []simtime.Time
	var tk *Ticker
	tk = k.NewTicker(simtime.Microsecond, func() {
		times = append(times, k.Now())
		if len(times) == 1 {
			tk.Reset(3 * simtime.Microsecond)
		}
	})
	k.RunUntil(simtime.Time(10 * simtime.Microsecond))
	tk.Stop()
	want := []simtime.Time{
		simtime.Time(1 * simtime.Microsecond),
		simtime.Time(4 * simtime.Microsecond),
		simtime.Time(7 * simtime.Microsecond),
		simtime.Time(10 * simtime.Microsecond),
	}
	if len(times) != len(want) {
		t.Fatalf("ticks at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v (full: %v)", i, times[i], want[i], times)
		}
	}
}

func TestKernelTelemetryWired(t *testing.T) {
	k := NewKernel(1)
	if k.Metrics() == nil || k.Trace() == nil {
		t.Fatal("kernel must own a registry and a trace bus")
	}
	if k.Trace().Active() {
		t.Fatal("fresh trace bus must be inactive")
	}
	c := k.Metrics().Counter("kernel_test/x")
	c.Inc()
	if k.Metrics().Snapshot().Counter("kernel_test/x") != 1 {
		t.Fatal("registry round-trip failed")
	}
}

// TestReapInsideCallbackBeforeSchedule: a callback whose stops cross
// the reap threshold before it schedules anything reaps while its own
// slot is still queued, waiting for its first schedule. Every survivor
// must fire once, in order, and every item handed out afterwards must
// be distinct: the firing event's item, recycled as it fired, must not
// be recycled a second time.
func TestReapInsideCallbackBeforeSchedule(t *testing.T) {
	const n = 40
	k := NewKernel(1)
	var got []int
	timers := make([]*Timer, n)
	for i := 0; i < n; i++ {
		i := i
		timers[i] = k.NewTimer(func() { got = append(got, i) })
		timers[i].ResetAt(simtime.Time(10 + i))
	}
	k.At(1, func() {
		// 21 of the 40 queued timers stopped: the 21st crosses
		// cancelled > queued/2 and reaps.
		for i := 0; i < n; i += 2 {
			timers[i].Stop()
		}
		timers[1].Stop()
		if len(k.queue) != n-21 || k.Pending() != n-21 {
			t.Fatalf("after the reap: %d slots, Pending() = %d, want %d and %d", len(k.queue), k.Pending(), n-21, n-21)
		}
		for j := 0; j < 2*n; j++ {
			j := j
			k.At(simtime.Time(100+j), func() { got = append(got, 1000+j) })
		}
		seen := make(map[*item]bool)
		for _, e := range k.queue {
			if seen[e.it] {
				t.Fatal("a schedule after the reap reused an item already queued")
			}
			seen[e.it] = true
		}
	})
	k.Run()
	var want []int
	for i := 3; i < n; i += 2 {
		want = append(want, i)
	}
	for j := 0; j < 2*n; j++ {
		want = append(want, 1000+j)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v\nwant  %v", got, want)
	}
}

// TestPendingInsideCallback: the firing event stops counting as pending
// when its callback starts, whether or not the callback has scheduled
// anything yet.
func TestPendingInsideCallback(t *testing.T) {
	k := NewKernel(1)
	k.At(5, func() {})
	var seen []int
	k.At(1, func() {
		seen = append(seen, k.Pending())
		k.At(2, func() { seen = append(seen, k.Pending()) })
		seen = append(seen, k.Pending())
		k.At(3, func() {})
		seen = append(seen, k.Pending())
	})
	k.Run()
	if want := []int{1, 2, 3, 2}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("Pending() inside callbacks = %v, want %v", seen, want)
	}
}

// TestEventAtForeverFires: simtime.Forever is a legal timestamp, not an
// empty-queue marker; Run fires an event scheduled there.
func TestEventAtForeverFires(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(simtime.Forever, func() { fired = true })
	k.Run()
	if !fired || k.Now() != simtime.Forever {
		t.Fatalf("event at Forever: fired=%v, clock %v", fired, k.Now())
	}
}

// TestTimerKeepsOneItem pins what the lazy timer saves and what it keeps:
// a thousand resets to later deadlines leave one item in the heap, and
// the timer still fires once, at its last deadline, between the
// same-instant events scheduled before and after that last reset — where
// Cancel plus At would have put it. Only the fire counts as an event.
func TestTimerKeepsOneItem(t *testing.T) {
	k := NewKernel(1)
	var got []string
	tm := k.NewTimer(func() { got = append(got, "timer") })
	last := simtime.Time(2000 * simtime.Nanosecond)
	for i := 1; i <= 1000; i++ {
		if i == 1000 {
			k.At(last, func() { got = append(got, "before") })
		}
		tm.ResetAt(simtime.Time(i) * simtime.Time(2*simtime.Nanosecond))
	}
	k.At(last, func() { got = append(got, "after") })
	if len(k.queue) != 3 || k.Pending() != 3 || !tm.Armed() {
		t.Fatalf("heap holds %d items, Pending() = %d, Armed() = %v; want 3, 3, true", len(k.queue), k.Pending(), tm.Armed())
	}
	k.Run()
	if fmt.Sprint(got) != "[before timer after]" || k.Now() != last {
		t.Fatalf("fired %v ending at %v, want [before timer after] at %v", got, k.Now(), last)
	}
	if k.EventsFired() != 3 || tm.Armed() {
		t.Fatalf("EventsFired() = %d, Armed() = %v after the run; want 3, false", k.EventsFired(), tm.Armed())
	}
}

// TestTimerEarlierResetAndStop checks the two paths that abandon the
// queued item: a reset to an earlier deadline and a Stop. The abandoned
// item never fires, and a reset from inside the timer's own callback
// re-arms it.
func TestTimerEarlierResetAndStop(t *testing.T) {
	k := NewKernel(1)
	var fires []simtime.Time
	var tm *Timer
	tm = k.NewTimer(func() {
		fires = append(fires, k.Now())
		if len(fires) == 1 {
			tm.Reset(10 * simtime.Nanosecond)
		}
	})
	tm.Reset(simtime.Microsecond)
	tm.Reset(5 * simtime.Nanosecond) // earlier: a fresh item
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d after an earlier reset, want 1", k.Pending())
	}
	k.Run()
	if fmt.Sprint(fires) != "[5ns 15ns]" {
		t.Fatalf("timer fired at %v, want [5ns 15ns]", fires)
	}
	tm.Reset(simtime.Microsecond)
	if !tm.Stop() || tm.Stop() || tm.Armed() || k.Pending() != 0 {
		t.Fatal("Stop must disarm an armed timer once and leave nothing pending")
	}
	k.Run()
	if len(fires) != 2 || k.EventsFired() != 2 {
		t.Fatalf("a stopped timer fired: %v, %d events", fires, k.EventsFired())
	}
}
