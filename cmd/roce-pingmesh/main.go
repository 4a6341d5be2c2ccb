// Command roce-pingmesh runs the Section 5.3 RDMA Pingmesh service on a
// two-podset Clos fabric: 512-byte probes between server pairs at ToR,
// podset and data-center scope, reporting RTT percentiles per scope and
// error counts for failed probes — including against a deliberately
// dead server, which the mesh surfaces as failures.
//
// With -sweep it instead runs the fleet-scale sampled mesh (Section
// 5.3 at deployment size): -podsets 35 builds a >20,000-server fabric
// and probes -pairs sampled server pairs across all three scopes.
//
// Usage:
//
//	roce-pingmesh [-duration 1s] [-seed 1] [-shards 1]
//	roce-pingmesh -sweep [-podsets 35] [-pairs 2000] [-duration 100ms] [-shards 8]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rocesim/internal/core"
	"rocesim/internal/experiments"
	"rocesim/internal/monitor"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
	"rocesim/internal/topology"
)

func main() {
	duration := flag.Duration("duration", time.Second, "simulated probing duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	shards := flag.Int("shards", 1, "event-kernel shards (workers); output is byte-identical for any value")
	sweep := flag.Bool("sweep", false, "run the fleet-scale sampled mesh instead of the two-podset sample")
	podsets := flag.Int("podsets", 35, "sweep: podsets (35 ~ 20K servers)")
	pairs := flag.Int("pairs", 2000, "sweep: sampled probe pairs")
	flag.Parse()

	if *sweep {
		cfg := experiments.DefaultPingmeshSweep()
		cfg.Seed = *seed
		cfg.Podsets = *podsets
		cfg.Pairs = *pairs
		cfg.Duration = simtime.FromStd(*duration)
		cfg.Shards = *shards
		r, err := experiments.RunPingmeshSweep(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roce-pingmesh:", err)
			os.Exit(1)
		}
		fmt.Print(r.Table())
		return
	}

	k := sim.NewRoot(*seed, *shards)
	d, err := core.New(k, core.DefaultConfig(topology.Fig7Spec(2)))
	if err != nil {
		panic(err)
	}
	pm := monitor.NewPingmesh(k, monitor.DefaultPingmesh())
	// A mesh sample: intra-ToR, intra-podset, cross-podset.
	pm.AddPair(d.Net, d.Net.Server(0, 0, 0), d.Net.Server(0, 0, 1))
	pm.AddPair(d.Net, d.Net.Server(0, 1, 0), d.Net.Server(0, 5, 0))
	pm.AddPair(d.Net, d.Net.Server(0, 2, 0), d.Net.Server(1, 2, 0))
	pm.AddPair(d.Net, d.Net.Server(1, 0, 0), d.Net.Server(1, 7, 1))
	// One probe target is dead: the mesh must log failures, not hang.
	dead := d.Net.Server(1, 9, 0)
	dead.NIC.SetMalfunction(true)
	dead.NIC.Pauser().Disabled = true
	pm.AddPair(d.Net, d.Net.Server(1, 9, 1), dead)

	pm.Start()
	k.RunUntil(simtime.Time(simtime.FromStd(*duration)))
	fmt.Print(pm.Report())
	fmt.Println("paper: Pingmesh RTTs are the health signal; probe failures localize incidents")

	// Registry snapshot at exit: the pause/drop counters the paper's
	// monitoring stack collects, plus the published RTT histograms.
	fmt.Println()
	fmt.Println("registry snapshot (pingmesh series and nonzero pause/drop counters):")
	snap := k.Metrics().Snapshot()
	fmt.Print(snap.Filter(func(e telemetry.Entry) bool {
		if strings.HasPrefix(e.Key, "pingmesh/") {
			return true
		}
		if e.Value == 0 {
			return false
		}
		for _, sfx := range []string{"/pause_rx", "/pause_tx", "/drops", "/lossless_drops"} {
			if strings.HasSuffix(e.Key, sfx) {
				return true
			}
		}
		return false
	}).Text())
}
