package nic

import (
	"fmt"
	"testing"

	"rocesim/internal/pfc"
	"rocesim/internal/telemetry"
	"rocesim/internal/transport"
)

// TestDeviceMetricsAllocs bounds what one NIC's telemetry costs to
// register: its stats, its PFC gauges and its transport counters are a
// block each, so the allocation count does not grow with the member
// count (eight lossless priorities cost what two do).
func TestDeviceMetricsAllocs(t *testing.T) {
	const runs = 100
	r := telemetry.NewRegistry()
	state := func() *pfc.PauseState { return nil }
	gen := new(pfc.Refresher)
	for _, mask := range []uint8{1<<3 | 1<<4, 0xff} {
		names := make([]string, runs+1) // AllocsPerRun calls once more to warm up
		for i := range names {
			names[i] = fmt.Sprintf("srv-%d-%#x", i, mask)
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			newStats(r, names[i])
			pfc.RegisterMetrics(r, names[i], state, gen, mask)
			transport.RegisterMetrics(r, names[i])
			i++
		})
		if allocs > 8 {
			t.Errorf("lossless mask %#x: registering one NIC's metrics allocates %v times, want <= 8", mask, allocs)
		}
	}
}
