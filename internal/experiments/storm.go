package experiments

import (
	"fmt"
	"strings"

	"rocesim/internal/core"
	"rocesim/internal/flighttrace"
	"rocesim/internal/health"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
	"rocesim/internal/telemetry"
	"rocesim/internal/topology"
	"rocesim/internal/workload"
)

// StormConfig shapes the Figure 5 / Figure 9 NIC PFC pause frame storm.
type StormConfig struct {
	Seed int64
	// Watchdogs enables the paper's two-sided mitigation (NIC
	// micro-controller + switch port watchdog).
	Watchdogs bool
	// Duration of the whole run; the malfunction starts at 1/4 of it.
	Duration simtime.Duration
	// Observe, when set, runs right after the fabric is built and before
	// traffic starts — the hook external tooling (`roce trace`) uses
	// to attach flow tracers and flight recorders to the experiment's
	// internal kernel.
	Observe func(*sim.Kernel)
	// Shards partitions the fabric across parallel event-kernel shards
	// (<=1 runs the classic single kernel). Results are byte-identical
	// for any value.
	Shards int
}

// DefaultStorm returns the scenario parameters.
func DefaultStorm(watchdogs bool) StormConfig {
	return StormConfig{Seed: 11, Watchdogs: watchdogs, Duration: 300 * simtime.Millisecond}
}

// StormResult reports the blast radius.
type StormResult struct {
	Cfg StormConfig
	// ServersAffected is how many healthy servers saw their goodput
	// collapse during the storm (the paper's Figure 9(a): "many of
	// their servers became unavailable").
	ServersAffected int
	ServersTotal    int
	// PauseRxPeak is the max pause frames any one device, server or
	// switch, received in one scrape interval (Figure 9(b)).
	PauseRxPeak float64
	// StormPauseSeries is the pause frames all devices received in each
	// scrape interval.
	StormPauseSeries *stats.Series
	// Snapshot is the full registry snapshot at run end (pause/drop
	// counters for every device).
	Snapshot *telemetry.Snapshot
	// ThroughputBefore/During/After are aggregate Gb/s across the
	// victim flows.
	ThroughputBefore float64
	ThroughputDuring float64
	ThroughputAfter  float64
	WatchdogTripped  bool
	// PFC is the pause-propagation analysis: cascade depth and the
	// root-cause ranking (the storming NIC must rank first).
	PFC *flighttrace.PFCReport
}

// Table renders the result.
func (r StormResult) Table() string {
	return row(
		fmt.Sprintf("watchdogs=%-5v", r.Cfg.Watchdogs),
		fmt.Sprintf("affected=%d/%d", r.ServersAffected, r.ServersTotal),
		fmt.Sprintf("pauseRxPeak=%-6.0f", r.PauseRxPeak),
		fmt.Sprintf("Gb/s before=%5.1f during=%5.1f after=%5.1f", r.ThroughputBefore, r.ThroughputDuring, r.ThroughputAfter),
		fmt.Sprintf("tripped=%v", r.WatchdogTripped),
	)
}

// RunStorm drives the Figure 8 testbed fabric with bulk traffic between
// ToR pairs, then makes one NIC malfunction ("continually sends pause
// frames to its ToR switch"). Without watchdogs the pauses propagate
// ToR → Leaf → ToR and strangle unrelated servers; with the watchdogs
// the damage is contained within hundreds of milliseconds.
func RunStorm(cfg StormConfig) StormResult {
	k := sim.NewRoot(cfg.Seed, cfg.Shards)
	// A reduced two-ToR, two-Leaf fabric keeps the event count tractable
	// while preserving the propagation path ToR -> Leaf -> ToR.
	spec := topology.Spec{
		Name: "storm", Podsets: 1, LeafsPerPod: 2, TorsPerPod: 2,
		ServersPerTor: 8, LinkRate: 40 * simtime.Gbps,
		ServerCableM: 2, LeafCableM: 20,
	}
	dcfg := core.DefaultConfig(spec)
	dcfg.Safety = core.Recommended()
	dcfg.Safety.NICWatchdog = cfg.Watchdogs
	dcfg.Safety.SwitchWatchdog = cfg.Watchdogs
	d, err := core.New(k, dcfg)
	if err != nil {
		panic(err)
	}
	net := d.Net
	pfc := tracePFC(k, net)
	pauses := scrapePauseRx(k)
	if cfg.Observe != nil {
		cfg.Observe(k)
	}

	// Victim traffic: pair server i of ToR 0 with server i of ToR 1.
	const pairs = 4
	streams := make([]*workload.Streamer, pairs)
	for i := 0; i < pairs; i++ {
		qa, _ := d.Connect(net.Server(0, 0, i), net.Server(0, 1, i), core.ClassBulk)
		streams[i] = &workload.Streamer{QP: qa, Size: 1 << 20}
		streams[i].Start(2)
	}

	// The rogue server participates in the service: peers on the other
	// ToR stream to it. Their packets are what back up through the
	// fabric once its NIC starts pausing — the head-of-line blocking
	// that turns one bad NIC into a network-wide incident.
	rogue := net.Server(0, 0, 6)
	bad := rogue.NIC
	for i := 4; i < 7; i++ {
		qa, _ := d.Connect(net.Server(0, 1, i), rogue, core.ClassBulk)
		(&workload.Streamer{QP: qa, Size: 1 << 20}).Start(2)
	}

	phase := cfg.Duration / 4
	measure := func(from, to simtime.Duration) (float64, []uint64) {
		start := make([]uint64, pairs)
		for i, st := range streams {
			start[i] = st.Done
		}
		k.RunUntil(simtime.Time(to))
		deltas := make([]uint64, pairs)
		var mb float64
		for i, st := range streams {
			deltas[i] = st.Done - start[i]
			mb += float64(deltas[i])
		}
		return mb * 8 * float64(1<<20) / (to - from).Seconds() / 1e9, deltas
	}

	before, base := measure(0, phase)
	bad.SetMalfunction(true)
	during, stormDeltas := measure(phase, 3*phase)
	// The paper: "the NIC PFC storm problem typically can be fixed by a
	// server reboot"; repair kicks in out of band.
	bad.SetMalfunction(false)
	after, _ := measure(3*phase, 4*phase)

	// Blast radius: a stream counts as affected when its progress in
	// the storm window collapsed below a quarter of its baseline rate
	// (the storm window is twice as long as the baseline window).
	affectedCount := 0
	for i := range streams {
		if stormDeltas[i] < base[i]/2 {
			affectedCount++
		}
	}

	// The registry snapshot is the single source of truth at run end:
	// the watchdog verdict and the exported counters both come from it.
	snap := k.Metrics().Snapshot()
	tripped := snap.SumSuffix("/watchdog_trips") > 0
	pfc.Finish(k.Now())

	return StormResult{
		Cfg:              cfg,
		ServersAffected:  affectedCount,
		ServersTotal:     pairs,
		PauseRxPeak:      pauses.peak,
		StormPauseSeries: &pauses.total,
		Snapshot:         snap,
		ThroughputBefore: before,
		ThroughputDuring: during,
		ThroughputAfter:  after,
		WatchdogTripped:  tripped,
		PFC:              pfc.Report(),
	}
}

// StormIncident renders the Figure 9-style report: availability drop and
// the pause-frame sparkline.
func StormIncident(r StormResult) string {
	out := "Figure 9 — NIC PFC storm incident\n"
	out += r.Table()
	out += "pause frames/interval: " + r.StormPauseSeries.Sparkline(60) + "\n"
	out += pfcSection(r.PFC)
	return out
}

// pauseRx is what a pause-rx scrape gathers: the largest one-interval
// pause_rx delta of any device, and the deltas of all devices summed
// per interval — Figures 9(b) and 10(b).
type pauseRx struct {
	peak  float64
	total stats.Series
}

// scrapePauseRx scrapes every device's pause_rx counter each 10 ms in
// the kernel's observer band, so each interval sees its last instant's
// pauses at any shard count and the run itself is untouched.
func scrapePauseRx(k *sim.Kernel) *pauseRx {
	const interval = 10 * simtime.Millisecond
	p := &pauseRx{total: stats.Series{Name: "pause_rx(all)", Interval: interval.Seconds()}}
	sc := health.NewScraper(k, health.ScrapeConfig{
		Interval: interval,
		Filter:   func(key string) bool { return strings.HasSuffix(key, "/pause_rx") },
	})
	sc.OnScrape(func(simtime.Time) {
		sum := 0.0
		for _, key := range sc.Keys {
			b, _ := sc.Series[key].Last()
			sum += b.Sum
			p.peak = max(p.peak, b.Sum)
		}
		p.total.Record(sum)
	})
	sc.Start()
	return p
}
