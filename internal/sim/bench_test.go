package sim

// Kernel micro-benchmarks: the schedule/fire/stop mixes every paper
// artifact reduces to. Each benchmark reports events/s, for measuring
// while working on the scheduler; whole-simulation speed is measured and
// compared with `bash bench/run.sh`. The mixes:
//
//   - ScheduleFire: a self-rescheduling chain, the pattern of pipeline
//     completions and pacers (queue depth ~1).
//   - HotQueue: a wide queue of self-rescheduling events (depth 512),
//     the steady state of a busy fabric where every egress and link has
//     work in flight.
//   - TimerRearm: the retransmit-timer pattern — a sim.Timer pushed back
//     on every ack, which almost never fires; a later-deadline re-arm
//     only records the new key.
//   - Drain: burst-fill then drain, the incast pattern.
//   - Mixed: interleaved schedule/fire/stop at the ratios a DCQCN storm
//     run exhibits (~6 schedules, 1 stop per 6 fires).
//   - Fanout: the rack-scale dispatch shape — a queue about 200 deep
//     where nearly every fired event schedules a follow-up from inside
//     its callback, with delays from a fixed mix (about 40% under
//     100 ns, 50% under 10 µs, 10% longer), and a few events schedule
//     nothing (their slot is taken back by an event that schedules two).

import (
	"math/rand"
	"testing"

	"rocesim/internal/simtime"
)

func BenchmarkKernelScheduleFire(b *testing.B) {
	k := NewKernel(1)
	n := 0
	var fn Event
	fn = func() {
		n++
		if n < b.N {
			k.After(simtime.Nanosecond, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(simtime.Nanosecond, fn)
	k.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkKernelHotQueue(b *testing.B) {
	const width = 512
	k := NewKernel(1)
	n := 0
	var fn Event
	fn = func() {
		n++
		if n < b.N {
			k.After(simtime.Microsecond, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < width; i++ {
		// Distinct offsets keep the heap honestly ordered rather than
		// degenerating into one timestamp bucket.
		k.After(simtime.Duration(i)*simtime.Nanosecond, fn)
	}
	k.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkKernelTimerRearm(b *testing.B) {
	k := NewKernel(1)
	timer := k.NewTimer(func() {})
	n := 0
	var fn Event
	fn = func() {
		// Progress was made: push the retransmit timer out again.
		timer.Reset(500 * simtime.Microsecond)
		n++
		if n < b.N {
			k.After(simtime.Nanosecond, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(simtime.Nanosecond, fn)
	k.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkKernelDrain(b *testing.B) {
	const burst = 4096
	k := NewKernel(1)
	nop := func() {}
	rounds := b.N/burst + 1
	b.ReportAllocs()
	b.ResetTimer()
	for r := 0; r < rounds; r++ {
		base := k.Now()
		for i := 0; i < burst; i++ {
			k.At(base.Add(simtime.Duration(i)*simtime.Nanosecond), nop)
		}
		k.Run()
	}
	b.ReportMetric(float64(rounds*burst)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkKernelMixed(b *testing.B) {
	k := NewKernel(1)
	nop := func() {}
	n := 0
	var pending [8]*Timer
	for i := range pending {
		pending[i] = k.NewTimer(nop)
	}
	var fn Event
	fn = func() {
		n++
		i := n & 7
		// Stop first, so the re-arm drops one item and pushes another.
		pending[i].Stop()
		pending[i].Reset(simtime.Millisecond)
		if n < b.N {
			k.After(simtime.Nanosecond, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(simtime.Nanosecond, fn)
	k.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkKernelFanout(b *testing.B) {
	const depth = 200
	rng := rand.New(rand.NewSource(1))
	var delays [1024]simtime.Duration // -1: schedule nothing
	for i := range delays {
		switch r := rng.Intn(100); {
		case r < 3:
			delays[i] = -1
		case r < 43:
			delays[i] = simtime.Duration(rng.Int63n(int64(100 * simtime.Nanosecond)))
		case r < 93:
			delays[i] = 100*simtime.Nanosecond + simtime.Duration(rng.Int63n(int64(9900*simtime.Nanosecond)))
		default:
			delays[i] = 10*simtime.Microsecond + simtime.Duration(rng.Int63n(int64(simtime.Millisecond)))
		}
	}
	k := NewKernel(1)
	draws, owed := 0, 0
	draw := func() simtime.Duration {
		d := delays[draws%len(delays)]
		draws++
		return d
	}
	var fn Event
	fn = func() {
		if k.EventsFired() >= uint64(b.N) {
			return
		}
		d := draw()
		if d < 0 {
			owed++
			return
		}
		k.After(d, fn)
		if owed > 0 {
			if d = draw(); d >= 0 {
				owed--
				k.After(d, fn)
			}
		}
	}
	for i := 0; i < depth; i++ {
		k.After(simtime.Duration(i)*simtime.Nanosecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.EventsFired())/b.Elapsed().Seconds(), "events/s")
}
