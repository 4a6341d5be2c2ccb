package experiments

// Parallel-kernel macro benchmarks: the two headline scenarios of the
// sharded executive (Fig 7 at 1152 servers, the 20K-server pingmesh
// sweep) at worker counts 1/2/4/8, reporting events/s. Durations are
// scaled down from the full EXPERIMENTS.md runs so one pass stays short;
// the fabric sizes are not scaled. Performance claims use
// `bash bench/run.sh` (its clos-bulk workload is the sharded Fig 7
// fabric) and its compare mode instead.
//
// On a multi-core host the shards=8 rows should approach linear
// scaling; on a single-core host (GOMAXPROCS=1) they measure the
// barrier + outbox overhead instead — the cost every sharded run pays.
// TestParallelScaling asserts the >=3x speedup only where the hardware
// can express it.

import (
	"fmt"
	"runtime"
	"testing"

	"rocesim/internal/simtime"
)

var benchShardCounts = []int{1, 2, 4, 8}

// benchFig7Cfg is the 1152-server fabric (24 ToR pairs x 24 servers x
// 2 podsets) with windows short enough to benchmark.
func benchFig7Cfg(shards int) Fig7Config {
	cfg := DefaultFig7()
	cfg.ServersPerTor = 24
	cfg.QPsPerServer = 2
	cfg.Warmup = 500 * simtime.Microsecond
	cfg.Measure = 1 * simtime.Millisecond
	cfg.Shards = shards
	return cfg
}

// benchSweepCfg is the 20,160-server fleet with a reduced probe mesh.
func benchSweepCfg(shards int) PingmeshSweepConfig {
	cfg := DefaultPingmeshSweep()
	cfg.Pairs = 500
	cfg.Duration = 20 * simtime.Millisecond
	cfg.Shards = shards
	return cfg
}

// The events/s metric divides by the experiments' RunSeconds — the
// RunUntil wall time — rather than b.Elapsed(), which also spans the
// serial fabric construction (35s of a 40s sweep iteration) and would
// bury the parallel section Amdahl-style.
func BenchmarkParallelFig7(b *testing.B) {
	for _, n := range benchShardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			var events uint64
			var secs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := RunFig7(benchFig7Cfg(n))
				events += r.EventsFired
				secs += r.RunSeconds
			}
			b.ReportMetric(float64(events)/secs, "events/s")
		})
	}
}

func BenchmarkParallelPingmesh20K(b *testing.B) {
	for _, n := range benchShardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			var events uint64
			var secs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := RunPingmeshSweep(benchSweepCfg(n))
				if err != nil {
					b.Fatal(err)
				}
				events += r.EventsFired
				secs += r.RunSeconds
			}
			b.ReportMetric(float64(events)/secs, "events/s")
		})
	}
}

// TestParallelScaling asserts the headline perf claim — >=3x events/s
// at 8 workers vs 1 on the untraced Fig 7 fabric — on hardware that
// can express it. Hosts with fewer than 8 CPUs skip: with one core the
// workers serialize and the measurement would only quantify barrier
// overhead (which BenchmarkParallel* pins instead).
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
