package monitor

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// TestCollectorMatchesSnapshotSeries checks the Collector's resolved
// readers against series recomputed from a full Registry.Snapshot at
// every tick, across a counter registered after the first sample, a
// device watched after sampling starts, devices lacking some suffixes,
// a device watched twice, and gauge and histogram entries.
func TestCollectorMatchesSnapshotSeries(t *testing.T) {
	k := sim.NewKernel(1)
	reg := k.Metrics()
	rng := rand.New(rand.NewSource(7))

	var counters []*telemetry.Counter
	counter := func(key string) {
		counters = append(counters, reg.Counter(key))
	}
	counter("sw-a/pause_rx")
	counter("sw-a/tx_frames")
	counter("sw-a/drops")
	counter("sw-a/ecn_marked") // not a sampled suffix
	depth := 0.0
	reg.Gauge("sw-a/rx_frames", func() float64 { return depth })
	counter("nic-b/tx_frames")
	hist := reg.Histogram("nic-b/lossless_drops")
	counter("nic-c/pause_tx")

	col := NewCollector(k, 10*simtime.Millisecond)
	col.Watch("sw-a")
	col.Watch("nic-b")
	col.Watch("sw-a")

	want := map[string][]float64{}
	last := map[string]float64{}
	col.AfterSample(func(simtime.Time) {
		snap := reg.Snapshot()
		for _, dev := range col.devices {
			for _, suffix := range sampledSuffixes {
				key := dev + suffix
				e, ok := snap.Get(key)
				if !ok {
					continue
				}
				want[key] = append(want[key], e.Value-last[key])
				last[key] = e.Value
			}
		}
	})

	k.NewTicker(3*simtime.Millisecond, func() {
		for _, c := range counters {
			c.Add(uint64(rng.Intn(5)))
		}
		depth = float64(rng.Intn(100))
		hist.Observe(float64(rng.Intn(1000)))
	})
	k.After(15*simtime.Millisecond, func() { counter("nic-b/pause_rx") })
	k.After(25*simtime.Millisecond, func() { col.Watch("nic-c") })
	k.After(37*simtime.Millisecond, func() { counter("nic-c/drops") })
	k.RunUntil(simtime.Time(100 * simtime.Millisecond))

	keys := func(m map[string][]float64) []string {
		var out []string
		for key := range m {
			out = append(out, key)
		}
		sort.Strings(out)
		return out
	}
	got := map[string][]float64{}
	for key, s := range col.Series {
		got[key] = s.Samples
	}
	if g, w := keys(got), keys(want); !slices.Equal(g, w) {
		t.Fatalf("series %v, want %v", g, w)
	}
	for _, key := range []string{"nic-b/pause_rx", "nic-c/pause_tx", "nic-c/drops", "nic-b/lossless_drops", "sw-a/rx_frames"} {
		if _, ok := want[key]; !ok {
			t.Fatalf("reference never sampled %s", key)
		}
	}
	for key, w := range want {
		if !slices.Equal(got[key], w) {
			t.Fatalf("%s: samples %v, want %v", key, got[key], w)
		}
	}
	if s := col.Series["sw-a/pause_rx"]; s.Interval != 0.01 || s.Name != "sw-a/pause_rx" {
		t.Fatalf("series metadata: name %q, interval %g s", s.Name, s.Interval)
	}
}
