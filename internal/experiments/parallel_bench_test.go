package experiments

// Parallel-kernel scaling: the sharded executive on the 1152-server
// Fig 7 fabric. Performance is measured end to end by
// `bash bench/run.sh` (its clos-bulk workload is the sharded Fig 7
// fabric) and judged by its compare mode; this test only asserts the
// scaling claim where the hardware can express it.

import (
	"runtime"
	"testing"

	"rocesim/internal/simtime"
)

// benchFig7Cfg is the 1152-server fabric (24 ToR pairs x 24 servers x
// 2 podsets) with windows short enough to measure quickly.
func benchFig7Cfg(shards int) Fig7Config {
	cfg := DefaultFig7()
	cfg.ServersPerTor = 24
	cfg.QPsPerServer = 2
	cfg.Warmup = 500 * simtime.Microsecond
	cfg.Measure = 1 * simtime.Millisecond
	cfg.Shards = shards
	return cfg
}

// TestParallelScaling asserts the headline perf claim — >=3x events/s
// at 8 workers vs 1 on the untraced Fig 7 fabric — on hardware that
// can express it. Hosts with fewer than 8 CPUs skip: with one core the
// workers serialize and the measurement would only quantify barrier
// overhead. The events/s metric divides by RunSeconds — the RunUntil
// wall time — rather than the whole call, which also spans the serial
// fabric construction.
func TestParallelScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement is not a -short test")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("host has %d CPUs; the 8-worker scaling claim needs >=8", runtime.NumCPU())
	}
	measure := func(shards int) float64 {
		r := RunFig7(benchFig7Cfg(shards))
		return float64(r.EventsFired) / r.RunSeconds
	}
	measure(1) // warm caches and the page allocator
	seq := measure(1)
	par := measure(8)
	t.Logf("events/s: shards=1 %.0f, shards=8 %.0f (%.2fx)", seq, par, par/seq)
	if par < 3*seq {
		t.Errorf("8-worker speedup %.2fx, want >=3x", par/seq)
	}
}
