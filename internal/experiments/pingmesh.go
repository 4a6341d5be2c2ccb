package experiments

import (
	"fmt"

	"rocesim/internal/core"
	"rocesim/internal/monitor"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
	"rocesim/internal/topology"
)

// PingmeshSweepConfig shapes the Section 5.3 latency-monitoring
// experiment at fleet scale: a multi-podset Clos fabric with a sampled
// all-pairs probe mesh, the workload the paper's Pingmesh service runs
// continuously across every data center.
type PingmeshSweepConfig struct {
	Seed int64
	// Fabric size. The paper's podset is 24 ToRs x 24 servers plus 4
	// Leafs; 35 podsets puts the fleet above 20,000 servers.
	Podsets       int
	TorsPerPod    int
	ServersPerTor int
	// Pairs is the number of sampled probe pairs. Pingmesh samples the
	// O(n^2) pair space; the sample is drawn from the seed-derived
	// stream "pingmesh/sweep", so it is identical for any shard count.
	Pairs    int
	Duration simtime.Duration
	// Shards partitions the fabric across parallel event-kernel shards
	// (<=1 runs the classic single kernel). Results are byte-identical
	// for any value.
	Shards int
}

// DefaultPingmeshSweep returns the 20K-server fleet sweep.
func DefaultPingmeshSweep() PingmeshSweepConfig {
	return PingmeshSweepConfig{
		Seed:          7,
		Podsets:       35,
		TorsPerPod:    24,
		ServersPerTor: 24,
		Pairs:         2000,
		Duration:      100 * simtime.Millisecond,
	}
}

// PingmeshSweepResult aggregates the sweep: per-scope RTT percentiles
// (the paper's Figure 9 axes) plus the mesh's probe and failure counts.
type PingmeshSweepResult struct {
	Cfg      PingmeshSweepConfig
	Servers  int
	Switches int
	Probes   uint64
	// Per-scope pair counts and RTT percentiles in microseconds.
	PairsByScope map[monitor.ProbeScope]int
	P50us        map[monitor.ProbeScope]float64
	P99us        map[monitor.ProbeScope]float64
	Failures     map[monitor.ProbeScope]uint64
}

// Table renders the sweep summary.
func (r PingmeshSweepResult) Table() string {
	out := fmt.Sprintf("Pingmesh sweep — %d servers, %d switches, %d sampled pairs, %v\n",
		r.Servers, r.Switches, r.Cfg.Pairs, r.Cfg.Duration)
	for _, s := range []monitor.ProbeScope{monitor.ScopeToR, monitor.ScopePodset, monitor.ScopeDC} {
		out += row(
			fmt.Sprintf("scope=%-6s", s.String()),
			fmt.Sprintf("pairs=%-5d", r.PairsByScope[s]),
			fmt.Sprintf("p50=%7.2fus", r.P50us[s]),
			fmt.Sprintf("p99=%7.2fus", r.P99us[s]),
			fmt.Sprintf("failures=%d", r.Failures[s]),
		)
	}
	out += fmt.Sprintf("probes=%d\n", r.Probes)
	out += "paper: Pingmesh RTTs are the fleet-wide latency signal (Section 5.3, Figure 9)\n"
	return out
}

// RunPingmeshSweep builds the fleet and probes the sampled mesh. It
// fails if the fleet cannot be built, for instance because the podset
// count is past the topology's addressing limit.
func RunPingmeshSweep(cfg PingmeshSweepConfig) (PingmeshSweepResult, error) {
	k := sim.NewRoot(cfg.Seed, cfg.Shards)
	// The paper's podset (Fig7Spec cabling and rates), replicated out to
	// fleet width.
	spec := topology.Fig7Spec(cfg.ServersPerTor)
	spec.Name = fmt.Sprintf("fleet-%dx%dx%d", cfg.Podsets, cfg.TorsPerPod, cfg.ServersPerTor)
	spec.Podsets = cfg.Podsets
	spec.TorsPerPod = cfg.TorsPerPod
	d, err := core.New(k, core.DefaultConfig(spec))
	if err != nil {
		return PingmeshSweepResult{}, err
	}
	net := d.Net

	pm := monitor.NewPingmesh(k, monitor.DefaultPingmesh())
	// Sample the pair space from a seed-derived stream: uniform over
	// ordered pairs of distinct servers, deduplicated, so the mesh
	// covers all three scopes roughly in proportion to their share of
	// the pair space (mostly cross-podset at fleet scale).
	rng := k.Rand("pingmesh/sweep")
	n := len(net.Servers)
	seen := make(map[[2]int]bool, cfg.Pairs)
	pairsByScope := make(map[monitor.ProbeScope]int)
	for len(seen) < cfg.Pairs {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		sa, sb := net.Servers[a], net.Servers[b]
		pm.AddPair(net, sa, sb)
		switch {
		case sa.Podset == sb.Podset && sa.TorIdx == sb.TorIdx:
			pairsByScope[monitor.ScopeToR]++
		case sa.Podset == sb.Podset:
			pairsByScope[monitor.ScopePodset]++
		default:
			pairsByScope[monitor.ScopeDC]++
		}
	}
	pm.Start()
	k.RunUntil(simtime.Time(cfg.Duration))
	pm.Fold()

	r := PingmeshSweepResult{
		Cfg:          cfg,
		Servers:      len(net.Servers),
		Switches:     len(net.Switches()),
		Probes:       pm.Probes,
		PairsByScope: pairsByScope,
		P50us:        make(map[monitor.ProbeScope]float64),
		P99us:        make(map[monitor.ProbeScope]float64),
		Failures:     make(map[monitor.ProbeScope]uint64),
	}
	for s, h := range pm.RTT {
		r.P50us[s] = quantUS(h, 0.50)
		r.P99us[s] = quantUS(h, 0.99)
		r.Failures[s] = pm.Failures[s]
	}
	return r, nil
}

// quantUS reads a picosecond histogram quantile in microseconds.
func quantUS(h *stats.Histogram, q float64) float64 {
	return float64(h.Quantile(q)) / 1e6
}
