package sim

import (
	"fmt"

	"rocesim/internal/simtime"
)

// Timer is a re-armable one-shot event, and the kernel's only event that
// can be called off: the retransmit, pause-retry and transmit-kick timers
// that are pushed back on nearly every frame, the PFC XOFF refresh, the
// Pingmesh probe timeout, the TCP RTO and Ticker. A reset to a later
// deadline costs no heap operation.
//
// Each ResetAt reserves the ordering key (now, seq) that dropping the
// previous event and scheduling a fresh one with At would have stamped,
// consuming one seq exactly as At does, so every other event keeps its
// key. The timer keeps at most one live item in the queue, keyed at or
// before the reserved key: a reset to a later deadline only records the
// new key, and when the item reaches the top of the heap under an older
// key, peek re-keys it in place and sifts it down. A reset to an earlier
// deadline drops the item (it is deleted lazily and never fires) and
// pushes a fresh one, and Stop drops it. The timer therefore fires
// exactly where that drop plus At would have fired it, and fires nothing
// else; only the number of heap operations changes.
type Timer struct {
	k       *Kernel
	fn      Event
	it      *item        // the timer's queued item; nil while disarmed
	itAt    simtime.Time // it's heap timestamp, never after at
	at      simtime.Time // the deadline
	schedAt simtime.Time // with seq, the ordering key the last reset reserved
	seq     uint64
}

// timerMark is how a queued item names its timer: the item's arg holds
// the *Timer under this unexported type, so no event scheduled with
// ScheduleOnLane can be mistaken for a timer.
type timerMark Timer

// fireTimer is the ArgEvent of every timer item. The timer is disarmed
// before its callback runs, so the callback may reset it.
func fireTimer(arg any) {
	t := (*Timer)(arg.(*timerMark))
	t.it = nil
	t.fn()
}

// NewTimer returns a disarmed timer that runs fn when it expires.
func (k *Kernel) NewTimer(fn Event) *Timer {
	if fn == nil {
		panic("sim: nil event")
	}
	return &Timer{k: k, fn: fn}
}

// Reset arms the timer to fire d from now, replacing the deadline it had,
// if any.
func (t *Timer) Reset(d simtime.Duration) { t.ResetAt(t.k.after(d)) }

// ResetAt arms the timer to fire at the absolute time at, replacing the
// deadline it had, if any. It orders among same-instant events exactly
// like an At issued now.
func (t *Timer) ResetAt(at simtime.Time) {
	k := t.k
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, k.now))
	}
	if it := t.it; it != nil {
		if at >= t.itAt {
			// The queued key (itAt, schedAt ≤ now, seq < k.seq) sorts at
			// or before the new one: keep the item, peek moves it.
			t.at, t.schedAt, t.seq = at, k.now, k.seq
			k.seq++
			return
		}
		k.drop(it)
	}
	it := k.newItem()
	it.afn = fireTimer
	it.arg = (*timerMark)(t)
	t.it, t.itAt = it, at
	t.at, t.schedAt, t.seq = at, it.schedAt, it.seq
	k.push(at, it)
}

// Stop disarms the timer. It reports whether the timer was armed.
func (t *Timer) Stop() bool {
	it := t.it
	if it == nil {
		return false
	}
	t.it = nil
	t.k.drop(it)
	return true
}

// Armed reports whether the timer is set to fire.
func (t *Timer) Armed() bool { return t.it != nil }
