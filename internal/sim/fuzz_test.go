package sim

import (
	"testing"

	"rocesim/internal/simtime"
)

// fuzzDelays is the delay set FuzzKernelOrder draws from: small enough
// that same-instant events, and so the tie-break half of the key, are
// common. fuzzMaxEvents caps one input's scheduled events, since the
// reference finds each fire by a scan.
var fuzzDelays = [8]simtime.Duration{0, 0, 1, 1, 2, 5, 50, 1000}

const fuzzMaxEvents = 2048

// fuzzTimers is how many Timers FuzzKernelOrder drives.
const fuzzTimers = 4

// refEvent is one scheduled event in FuzzKernelOrder's reference model,
// carrying the full ordering key the kernel must honour.
type refEvent struct {
	id      int
	at      simtime.Time
	band    bool // scheduled with AtObserve
	schedAt simtime.Time
	lane    uint64
	live    bool
	timer   int // 1 + the index of the Timer this event arms, 0 for none
}

// before is the reference order: (at, band, schedAt, lane, call order).
// ids are handed out in call order.
func (a *refEvent) before(b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.band != b.band {
		return b.band
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.id < b.id
}

// FuzzKernelOrder drives one kernel through At, AtObserve,
// ScheduleOnLane (lanes 0–3), held one-shot timers (a fresh Timer armed
// by ResetAt) and their Stop, Timer Reset, ResetAt and Stop on four
// re-armed timers, Step and RunUntil, decoded from the input a byte or
// two per call, and checks every fire against a reference list ordered
// by (at, band, schedAt, lane, call order), in which a timer reset drops
// the timer's event and adds an At. A fired callback reads its own
// instructions from the input when it runs: it may stop one held timer
// or every one still armed (enough to reap while it is still firing,
// before it schedules anything), reset or stop a re-armed timer (its
// own, inside a timer's callback), then schedule up to three events.
// Pending() and every re-armed timer's Armed() must agree with the
// reference before, during and after every callback, and a final Run
// must fire everything still live.
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		k := NewKernel(1)
		var (
			live     []*refEvent // reference: scheduled, neither fired nor cancelled
			held     []*Timer    // the one-shot timers
			heldRef  []*refEvent
			timers   [fuzzTimers]*Timer
			timerRef [fuzzTimers]*refEvent // each timer's live event, nil while disarmed
			events   int
			fires    int
		)
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		checkPending := func(where string) {
			t.Helper()
			if got := k.Pending(); got != len(live) {
				t.Fatalf("%s: Pending() = %d, reference has %d live", where, got, len(live))
			}
			for i, tm := range timers {
				if tm.Armed() != (timerRef[i] != nil) {
					t.Fatalf("%s: timer %d Armed() = %v, reference armed = %v", where, i, tm.Armed(), timerRef[i] != nil)
				}
			}
		}
		drop := func(ev *refEvent) {
			ev.live = false
			for i, x := range live {
				if x == ev {
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					return
				}
			}
			t.Fatalf("event %d missing from the reference", ev.id)
		}
		stop := func(i int) {
			tm, ev := held[i], heldRef[i]
			if tm.Armed() != ev.live {
				t.Fatalf("one-shot timer of event %d: Armed() = %v, reference live = %v", ev.id, tm.Armed(), ev.live)
			}
			wasLive := ev.live
			if wasLive {
				drop(ev)
			}
			if got := tm.Stop(); got != wasLive {
				t.Fatalf("Stop of event %d = %v, reference live = %v", ev.id, got, wasLive)
			}
			checkPending("after stop")
		}

		var onFire func(ev *refEvent)
		fireArg := func(arg any) { onFire(arg.(*refEvent)) }
		for i := range timers {
			i := i
			timers[i] = k.NewTimer(func() {
				ev := timerRef[i]
				if ev == nil {
					t.Fatalf("timer %d fired while the reference has it disarmed", i)
				}
				timerRef[i] = nil
				onFire(ev)
			})
		}
		// timerOp decodes one timer call: the low two bits pick the timer
		// (bit 2 picks the firing timer itself, inside its callback), bit
		// 7 stops it, otherwise it is reset by the delay in bits 3–5,
		// through ResetAt when bit 6 is set and Reset when not.
		timerOp := func(c byte, self int) {
			i := int(c & 3)
			if c&4 != 0 && self > 0 {
				i = self - 1
			}
			tm, old := timers[i], timerRef[i]
			if c&0x80 != 0 {
				if old != nil {
					drop(old)
					timerRef[i] = nil
				}
				if got := tm.Stop(); got != (old != nil) {
					t.Fatalf("Stop of timer %d = %v, reference armed = %v", i, got, old != nil)
				}
				checkPending("after Stop")
				return
			}
			if events == fuzzMaxEvents {
				return
			}
			if old != nil {
				drop(old)
			}
			d := fuzzDelays[c>>3&7]
			ev := &refEvent{id: events, at: k.Now().Add(d), schedAt: k.Now(), live: true, timer: i + 1}
			events++
			live = append(live, ev)
			timerRef[i] = ev
			if c&0x40 != 0 {
				tm.ResetAt(ev.at)
			} else {
				tm.Reset(d)
			}
			checkPending("after reset")
		}
		// schedule decodes one schedule call: the low two bits pick the
		// method, the next three the delay, the top two the lane.
		schedule := func(b byte) {
			if events == fuzzMaxEvents {
				return
			}
			ev := &refEvent{id: events, at: k.Now().Add(fuzzDelays[b>>2&7]), schedAt: k.Now(), live: true}
			events++
			live = append(live, ev)
			switch b & 3 {
			case 0:
				k.At(ev.at, func() { onFire(ev) })
			case 1:
				tm := k.NewTimer(func() { onFire(ev) })
				tm.ResetAt(ev.at)
				held = append(held, tm)
				heldRef = append(heldRef, ev)
			case 2:
				ev.band = true
				k.AtObserve(ev.at, func() { onFire(ev) })
			case 3:
				ev.lane = uint64(b >> 5 & 3)
				k.ScheduleOnLane(k, ev.at, ev.lane, fireArg, ev)
			}
			checkPending("after schedule")
		}
		onFire = func(ev *refEvent) {
			want := live[0]
			for _, x := range live[1:] {
				if x.before(want) {
					want = x
				}
			}
			if ev != want {
				t.Fatalf("fired event %d (at %v), reference predicts %d (at %v)", ev.id, ev.at, want.id, want.at)
			}
			if k.Now() != ev.at {
				t.Fatalf("event %d fired at %v, scheduled for %v", ev.id, k.Now(), ev.at)
			}
			fires++
			drop(ev)
			checkPending("callback start")
			b, _ := next()
			switch b >> 2 & 7 {
			case 5, 6:
				if len(held) > 0 {
					i, _ := next()
					stop(int(i) % len(held))
				}
			case 7:
				for i := range held {
					if heldRef[i].live {
						stop(i)
					}
				}
			}
			if b&0x20 != 0 {
				if c, ok := next(); ok {
					timerOp(c, ev.timer)
				}
			}
			for n := b & 3; n > 0; n-- {
				s, ok := next()
				if !ok {
					break
				}
				schedule(s)
			}
		}

		for {
			b, ok := next()
			if !ok {
				break
			}
			switch b & 7 {
			case 0, 1, 2, 3: // the method in the low bits, then delay and lane
				schedule(b&3 | b>>3<<2)
			case 4:
				if len(held) > 0 {
					i, _ := next()
					stop(int(i) % len(held))
				}
			case 5:
				if b >= 8 { // a timer call; 5 alone is a Step
					if c, ok := next(); ok {
						timerOp(c, 0)
					}
					break
				}
				want, n := 0, fires
				if len(live) > 0 {
					want = 1
				}
				if got := k.Step(); got != (want == 1) || fires-n != want {
					t.Fatalf("Step() = %v and fired %d events, with %d live before", got, fires-n, len(live)+fires-n)
				}
			case 6, 7:
				deadline := k.Now().Add(4 * fuzzDelays[b>>3&7])
				k.RunUntil(deadline)
				for _, ev := range live {
					if ev.at <= deadline {
						t.Fatalf("RunUntil(%v) left event %d at %v unfired", deadline, ev.id, ev.at)
					}
				}
				if k.Now() != deadline {
					t.Fatalf("RunUntil(%v) left the clock at %v", deadline, k.Now())
				}
			}
			checkPending("between calls")
		}
		k.Run()
		if len(live) != 0 {
			t.Fatalf("Run() left %d live events unfired", len(live))
		}
		checkPending("after Run")
	})
}
