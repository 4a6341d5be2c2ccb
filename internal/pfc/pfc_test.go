package pfc

import (
	"testing"
	"testing/quick"

	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
)

const rate40G = 40 * simtime.Gbps

func TestPauseStateBasics(t *testing.T) {
	s := NewPauseState(rate40G)
	now := simtime.Time(0)
	if s.Paused(now, 3) {
		t.Fatal("fresh state must not be paused")
	}
	// Pause priority 3 for 100 quanta: 100 * 12.8ns = 1.28us.
	pf := packet.NewPause(packet.MAC{}, 1<<3, 100)
	s.Handle(now, pf.Pause)
	if !s.Paused(now, 3) {
		t.Fatal("must be paused")
	}
	if s.Paused(now, 4) {
		t.Fatal("priority 4 untouched")
	}
	at := now.Add(1280 * simtime.Nanosecond)
	if s.Paused(at, 3) {
		t.Fatal("pause must expire after quanta elapse")
	}
	if s.RxPause != 1 {
		t.Fatalf("RxPause %d", s.RxPause)
	}
}

func TestPauseStateExplicitResume(t *testing.T) {
	s := NewPauseState(rate40G)
	s.Handle(0, packet.NewPause(packet.MAC{}, 1<<3, MaxQuanta).Pause)
	now := simtime.Time(10 * simtime.Microsecond)
	if !s.Paused(now, 3) {
		t.Fatal("should still be paused")
	}
	// Zero-quanta frame resumes immediately.
	s.Handle(now, packet.NewPause(packet.MAC{}, 1<<3, 0).Pause)
	if s.Paused(now, 3) {
		t.Fatal("explicit XON must resume")
	}
	if s.TotalPaused[3] != 10*simtime.Microsecond {
		t.Fatalf("accumulated pause %v, want 10us", s.TotalPaused[3])
	}
}

func TestPauseIntervalAccountingOnExpiry(t *testing.T) {
	s := NewPauseState(rate40G)
	s.Handle(0, packet.NewPause(packet.MAC{}, 1<<4, 100).Pause)
	// Query long after expiry: the interval closes at the quanta end,
	// not the query time.
	if s.Paused(simtime.Time(simtime.Second), 4) {
		t.Fatal("expired")
	}
	if s.TotalPaused[4] != 1280*simtime.Nanosecond {
		t.Fatalf("accumulated %v, want 1.28us", s.TotalPaused[4])
	}
}

func TestPauseExtension(t *testing.T) {
	s := NewPauseState(rate40G)
	s.Handle(0, packet.NewPause(packet.MAC{}, 1<<3, 100).Pause)
	mid := simtime.Time(640 * simtime.Nanosecond)
	s.Handle(mid, packet.NewPause(packet.MAC{}, 1<<3, 100).Pause)
	// Refresh restarts the clock: paused until mid+1.28us.
	if !s.Paused(simtime.Time(1800*simtime.Nanosecond), 3) {
		t.Fatal("refresh must extend the pause")
	}
	if s.Paused(simtime.Time(1921*simtime.Nanosecond), 3) {
		t.Fatal("extended pause must still expire")
	}
}

func TestAnyPaused(t *testing.T) {
	s := NewPauseState(rate40G)
	s.Handle(0, packet.NewPause(packet.MAC{}, 1<<3, MaxQuanta).Pause)
	if !s.AnyPaused(0, 0b00001000) {
		t.Fatal("mask including pri 3")
	}
	if s.AnyPaused(0, 0b00010000) {
		t.Fatal("mask excluding pri 3")
	}
}

func newTestRefresher(k *sim.Kernel, sent *[]*packet.Packet) *Refresher {
	return NewRefresher(k, packet.MAC{0x02, 0, 0, 0, 0, 1}, rate40G,
		func(p *packet.Packet) { *sent = append(*sent, p) })
}

func TestRefresherSustainsPause(t *testing.T) {
	k := sim.NewKernel(1)
	var sent []*packet.Packet
	r := newTestRefresher(k, &sent)
	r.Pause(3)
	// MaxQuanta at 40G = 65535*12.8ns ≈ 839us; refresh every ~420us.
	k.RunUntil(simtime.Time(2 * simtime.Millisecond))
	if len(sent) < 4 {
		t.Fatalf("only %d pause frames in 2ms; refresh broken", len(sent))
	}
	// A receiver applying these frames stays continuously paused.
	s := NewPauseState(rate40G)
	for _, p := range sent {
		s.Handle(0, p.Pause) // timing: all frames extend from their send time
	}
	r.Resume(3)
	last := sent[len(sent)-1]
	if !last.Pause.IsResume() {
		t.Fatal("Resume must emit a zero-quanta frame")
	}
	if r.Engaged() != 0 {
		t.Fatal("still engaged after resume")
	}
	// No further refreshes after resume.
	n := len(sent)
	k.RunUntil(simtime.Time(10 * simtime.Millisecond))
	if len(sent) != n {
		t.Fatalf("refresher kept sending after resume: %d -> %d", n, len(sent))
	}
}

func TestRefresherReceiverNeverResumesEarly(t *testing.T) {
	// End-to-end: receiver evaluating pause state at arbitrary times
	// during a sustained pause must always see "paused".
	k := sim.NewKernel(1)
	s := NewPauseState(rate40G)
	r := NewRefresher(k, packet.MAC{}, rate40G,
		func(p *packet.Packet) { s.Handle(k.Now(), p.Pause) })
	r.Pause(4)
	gaps := 0
	tick := k.NewTicker(50*simtime.Microsecond, func() {
		if !s.Paused(k.Now(), 4) {
			gaps++
		}
	})
	k.RunUntil(simtime.Time(5 * simtime.Millisecond))
	tick.Stop()
	if gaps != 0 {
		t.Fatalf("receiver saw %d unpaused gaps during sustained pause", gaps)
	}
}

func TestRefresherIdempotentPause(t *testing.T) {
	k := sim.NewKernel(1)
	var sent []*packet.Packet
	r := newTestRefresher(k, &sent)
	r.Pause(3)
	r.Pause(3)
	if len(sent) != 1 {
		t.Fatalf("double pause sent %d frames", len(sent))
	}
	r.Resume(5) // not engaged: no frame
	if len(sent) != 1 {
		t.Fatal("resume of unengaged priority sent a frame")
	}
}

func TestRefresherMultiplePriorities(t *testing.T) {
	k := sim.NewKernel(1)
	var sent []*packet.Packet
	r := newTestRefresher(k, &sent)
	r.Pause(3)
	r.Pause(4)
	if r.Engaged() != 0b00011000 {
		t.Fatalf("engaged %08b", r.Engaged())
	}
	last := sent[len(sent)-1]
	if !last.Pause.Enabled(4) {
		t.Fatal("second pause must cover priority 4")
	}
	r.Resume(3)
	if r.Engaged() != 0b00010000 {
		t.Fatalf("engaged after partial resume %08b", r.Engaged())
	}
}

func TestRefresherDisabled(t *testing.T) {
	k := sim.NewKernel(1)
	var sent []*packet.Packet
	r := newTestRefresher(k, &sent)
	r.Disabled = true // watchdog turned us off
	r.Pause(3)
	k.RunUntil(simtime.Time(5 * simtime.Millisecond))
	if len(sent) != 0 {
		t.Fatal("disabled refresher emitted frames")
	}
}

// Regression: a Pause issued while the refresher is Disabled latches the
// engaged bit with no frame sent and no refresh timer. Before the fix,
// re-enabling and pausing again early-returned on the latched bit, so
// the upstream was never XOFFed and no refresher ran — the "PG stuck
// engaged after watchdog re-enable" bug.
func TestRefresherPauseAfterDisabledEpisode(t *testing.T) {
	k := sim.NewKernel(1)
	var sent []*packet.Packet
	r := newTestRefresher(k, &sent)
	r.Disabled = true
	r.Pause(3) // latched, suppressed
	if len(sent) != 0 {
		t.Fatal("disabled refresher emitted a frame")
	}
	r.Disabled = false
	r.Pause(3) // must notice the dormant latch and emit
	if len(sent) != 1 {
		t.Fatalf("pause after disabled episode sent %d frames, want 1", len(sent))
	}
	if !sent[0].Pause.Enabled(3) || sent[0].Pause.IsResume() {
		t.Fatal("expected an XOFF covering priority 3")
	}
	// And the refresher must actually be running again.
	k.RunUntil(simtime.Time(2 * simtime.Millisecond))
	if len(sent) < 4 {
		t.Fatalf("only %d frames in 2ms; refresh not rescheduled", len(sent))
	}
}

// Reenable is the watchdog-facing recovery path: clearing Disabled must
// resume emission for priorities latched during the outage.
func TestRefresherReenable(t *testing.T) {
	k := sim.NewKernel(1)
	var sent []*packet.Packet
	r := newTestRefresher(k, &sent)
	r.Disabled = true
	r.Pause(4)
	r.Reenable()
	if r.Disabled {
		t.Fatal("Reenable must clear Disabled")
	}
	if len(sent) != 1 || !sent[0].Pause.Enabled(4) {
		t.Fatalf("Reenable with a latched priority must emit XOFF; sent=%d", len(sent))
	}
	// Idempotent when already enabled.
	r.Reenable()
	if len(sent) != 1 {
		t.Fatal("Reenable while enabled must not emit")
	}
	r.Resume(4)
	if r.Engaged() != 0 {
		t.Fatal("resume after reenable must clear engagement")
	}
}

func TestWatchdogFiresAfterWindow(t *testing.T) {
	w := NewWatchdog(100 * simtime.Millisecond)
	base := simtime.Time(0)
	if w.Observe(base, true) {
		t.Fatal("must not fire immediately")
	}
	if w.Observe(base.Add(50*simtime.Millisecond), true) {
		t.Fatal("must not fire before window")
	}
	if !w.Observe(base.Add(100*simtime.Millisecond), true) {
		t.Fatal("must fire at window")
	}
	if w.Observe(base.Add(150*simtime.Millisecond), true) {
		t.Fatal("must fire once per episode")
	}
	if !w.Tripped() {
		t.Fatal("Tripped")
	}
}

func TestWatchdogResetsOnFalse(t *testing.T) {
	w := NewWatchdog(100 * simtime.Millisecond)
	w.Observe(0, true)
	w.Observe(simtime.Time(90*simtime.Millisecond), false)
	if w.Observe(simtime.Time(100*simtime.Millisecond), true) {
		t.Fatal("window must restart after a false observation")
	}
	if !w.Observe(simtime.Time(200*simtime.Millisecond), true) {
		t.Fatal("must fire after a fresh window")
	}
}

func TestWatchdogClearedFor(t *testing.T) {
	w := NewWatchdog(100 * simtime.Millisecond)
	w.Observe(simtime.Time(10*simtime.Millisecond), true)
	if w.ClearedFor(simtime.Time(50*simtime.Millisecond)) != 0 {
		t.Fatal("cleared-for must be 0 while condition holds")
	}
	w.Observe(simtime.Time(60*simtime.Millisecond), false)
	got := w.ClearedFor(simtime.Time(260 * simtime.Millisecond))
	if got != 250*simtime.Millisecond {
		t.Fatalf("ClearedFor %v, want 250ms (since last true at 10ms)", got)
	}
}

// Property: any sequence of pause frames leaves accounting consistent —
// accumulated pause time never negative, never exceeds elapsed time.
func TestPauseAccountingProperty(t *testing.T) {
	f := func(events []struct {
		DeltaUS uint16
		Quanta  uint16
		Mask    uint8
	}) bool {
		s := NewPauseState(rate40G)
		now := simtime.Time(0)
		for _, e := range events {
			now = now.Add(simtime.Duration(e.DeltaUS) * simtime.Microsecond)
			s.Handle(now, packet.NewPause(packet.MAC{}, e.Mask, e.Quanta).Pause)
			for pri := 0; pri < 8; pri++ {
				s.Paused(now, pri) // force interval closure bookkeeping
			}
		}
		end := now.Add(simtime.Second)
		for pri := 0; pri < 8; pri++ {
			s.Paused(end, pri)
			if s.TotalPaused[pri] < 0 || s.TotalPaused[pri] > end.Sub(0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
