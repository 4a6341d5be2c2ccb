package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"rocesim/internal/core"
	"rocesim/internal/faults"
	"rocesim/internal/flighttrace"
	"rocesim/internal/health"
	"rocesim/internal/monitor"
	"rocesim/internal/packet"
	"rocesim/internal/pcap"
	"rocesim/internal/rollout"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
	"rocesim/internal/tenant"
	"rocesim/internal/topology"
	"rocesim/internal/transport"
	"rocesim/internal/workload"
)

// Options tune a scenario run. A zero field keeps the scenario's own
// value, so Run(Options{}) renders exactly the scenario's reference run.
type Options struct {
	Seed   int64
	Shards int
	// Duration is the scenario's one run length: per cell, per run, or
	// the measurement window, as the scenario defines it.
	Duration simtime.Duration
	// Observe runs on every kernel the scenario runs, after its fabric
	// is built and before traffic starts, in run order.
	Observe func(*sim.Kernel)
	// Tors, Servers, QPs and Warmup scale the Figure 7 fabric (ToR
	// pairs, servers per ToR, QPs per server pair, DCQCN warm-up);
	// Podsets sizes the fleet of pingmesh-sweep.
	Tors, Servers, QPs, Podsets int
	Warmup                      simtime.Duration
}

// with returns o with each zero field taken from def.
func (o Options) with(def Options) Options {
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.Shards == 0 {
		o.Shards = def.Shards
	}
	if o.Duration == 0 {
		o.Duration = def.Duration
	}
	if o.Observe == nil {
		o.Observe = def.Observe
	}
	if o.Tors == 0 {
		o.Tors = def.Tors
	}
	if o.Servers == 0 {
		o.Servers = def.Servers
	}
	if o.QPs == 0 {
		o.QPs = def.QPs
	}
	if o.Podsets == 0 {
		o.Podsets = def.Podsets
	}
	if o.Warmup == 0 {
		o.Warmup = def.Warmup
	}
	return o
}

// into overrides an experiment config's seed, shard count, length and
// observer with o's set fields; a nil pointer is a field the config
// does not have.
func (o Options) into(seed *int64, shards *int, d *simtime.Duration, observe *func(*sim.Kernel)) {
	if o.Seed != 0 {
		*seed = o.Seed
	}
	if shards != nil && o.Shards != 0 {
		*shards = o.Shards
	}
	if d != nil && o.Duration != 0 {
		*d = o.Duration
	}
	if observe != nil && o.Observe != nil {
		*observe = o.Observe
	}
}

// Result is one scenario run.
type Result struct {
	// Text is the scenario's rendering: what `roce <name>` prints.
	Text string
	// JSON is the -json rendering, newline-terminated (HasJSON).
	JSON []byte
	// Snapshot is the registry of a one-fabric scenario (HasSnapshot).
	Snapshot *telemetry.Snapshot
	// PFC is the pause-propagation analysis of the scenario's first run,
	// where it has one.
	PFC *flighttrace.PFCReport
	// Pcap is a capture file (HasPcap).
	Pcap []byte
	// Failures name the contracts the run missed; the exit status of
	// `roce` reports them.
	Failures []string
}

// Has lists the Options a scenario honours and the Result fields it
// fills.
type Has uint16

const (
	HasSeed     Has = 1 << iota
	HasShards       // Options.Shards; the rendering is byte-identical for any value
	HasDuration     // Options.Duration
	HasObserve      // Options.Observe
	HasFabric       // Options.Tors, Servers, QPs and Warmup
	HasPodsets      // Options.Podsets
	HasJSON         // Result.JSON
	HasSnapshot     // Result.Snapshot
	HasSLO          // Result.Failures are SLO breaches, which a scenario may be meant to show
	HasPcap         // Result.Pcap
)

// paper is what the paper's incident scenarios honour.
const paper = HasSeed | HasShards | HasDuration | HasObserve

// Scenario is one named run of the evaluation.
type Scenario struct {
	Name string
	Doc  string
	Has  Has
	// Gate is the short run the audit and determinism gates take of the
	// scenario, overlaid on the caller's Options; nil when it has none.
	Gate *Options
	run  func(Options) (Result, error)
}

// Run runs the scenario.
func (s *Scenario) Run(o Options) (Result, error) { return s.run(o) }

// RunGate runs the scenario's gate run with o's set fields on top.
func (s *Scenario) RunGate(o Options) (Result, error) { return s.run(o.with(*s.Gate)) }

// Lookup returns the named scenario, or nil.
func Lookup(name string) *Scenario {
	for i := range Scenarios {
		if Scenarios[i].Name == name {
			return &Scenarios[i]
		}
	}
	return nil
}

// Scenarios is every named run, in the order `roce` lists them. The
// gates (audit, determinism, tracing) iterate it, so a scenario added
// here gets each of them by declaring what it Has and a Gate.
var Scenarios = []Scenario{
	{Name: "livelock", Doc: "§4.1 go-back-0 vs go-back-N under 1/256 loss",
		Has: paper, Gate: &Options{Duration: 20 * simtime.Millisecond},
		run: text(livelockMatrix)},
	{Name: "deadlock", Doc: "Fig 4 PFC deadlock, the ARP fix and IRN",
		Has: paper, Gate: &Options{Duration: 60 * simtime.Millisecond},
		run: runDeadlockScenario},
	{Name: "storm", Doc: "Fig 5/9 NIC pause storm, with and without watchdogs",
		Has: paper, Gate: &Options{Duration: 40 * simtime.Millisecond},
		run: runStormScenario},
	{Name: "incident", Doc: "Fig 10 α misconfiguration and the drift check",
		Has: paper, Gate: &Options{Duration: 50 * simtime.Millisecond},
		run: runIncidentScenario},
	{Name: "fig6", Doc: "Fig 6 TCP vs RDMA latency percentiles",
		Has: HasSeed | HasDuration, run: text(runFig6Scenario)},
	{Name: "fig7", Doc: "Fig 7 ECMP-capped Clos throughput (-tors, -servers, -qps, -warmup)",
		Has: HasSeed | HasShards | HasDuration | HasFabric,
		Gate: &Options{Tors: 2, Servers: 2, QPs: 2,
			Warmup: 2 * simtime.Millisecond, Duration: 2 * simtime.Millisecond},
		run: text(runFig7Scenario)},
	{Name: "fig8", Doc: "Fig 8 RDMA latency under bulk load",
		Has: HasSeed | HasDuration, run: text(runFig8Scenario)},
	{Name: "pingmesh", Doc: "§5.3 RDMA Pingmesh on two podsets, one dead server",
		Has: HasSeed | HasShards | HasDuration | HasSnapshot, Gate: &Options{Duration: 300 * simtime.Millisecond},
		run: runPingmesh},
	{Name: "pingmesh-sweep", Doc: "§5.3 sampled mesh over a 20,160-server fleet (-podsets)",
		Has: HasSeed | HasShards | HasDuration | HasPodsets, run: runPingmeshSweepScenario},
	{Name: "metrics", Doc: "full registry snapshot of two bulk flows into one server",
		Has: HasSeed | HasDuration | HasJSON | HasSnapshot, run: runMetrics},
	{Name: "capture", Doc: "pcap of a 3:1 incast on a server's cable (-o, default capture.pcap)",
		Has: HasSeed | HasDuration | HasPcap, run: runCapture},
	{Name: "chaos", Doc: "fault library × fleets, scored on the safeguards",
		Has: HasSeed | HasJSON, run: chaos(faults.DefaultCampaign)},
	{Name: "chaos-quick", Doc: "the three-cell chaos campaign",
		Has: HasSeed | HasJSON, run: chaos(faults.QuickCampaign)},
	{Name: "transports", Doc: "PFC+DCQCN vs IRN on four scenarios",
		Has: HasSeed | HasJSON, run: transports(false)},
	{Name: "transports-quick", Doc: "the transport matrix on the storm and the incast",
		Has: HasSeed | HasJSON, run: transports(true)},
	{Name: "health", Doc: "fleet health reports: SLO burn, histograms, heatmap",
		Has: HasSeed | HasDuration | HasJSON | HasSLO, run: runHealthScenarios},
	{Name: "rollout", Doc: "staged config rollouts with health-gated rollback",
		Has: HasSeed | HasShards | HasJSON, run: runRollout},
	{Name: "tenants", Doc: "multi-tenant QoS isolation matrix",
		Has: HasSeed | HasShards | HasJSON, run: runTenants},
	{Name: "report", Doc: "the fast experiments in one report",
		run: text(func(Options) string { return report(false) })},
	{Name: "report-all", Doc: "the report plus scaled Figures 6-9",
		run: text(func(Options) string { return report(true) })},
}

// text adapts a renderer to a scenario run.
func text(render func(Options) string) func(Options) (Result, error) {
	return func(o Options) (Result, error) { return Result{Text: render(o)}, nil }
}

// withJSON adds v's indented JSON to r.
func withJSON(r Result, v any) (Result, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	r.JSON = append(b, '\n')
	return r, err
}

func runDeadlockScenario(o Options) (Result, error) {
	var r Result
	out := "Figure 4 — PFC deadlock from flooding of lossless packets\n"
	for i, mode := range []struct{ fix, irn bool }{{false, false}, {true, false}, {false, true}} {
		cfg := DefaultDeadlock(mode.fix)
		cfg.IRNNoPFC = mode.irn
		o.into(&cfg.Seed, &cfg.Shards, &cfg.Duration, &cfg.Observe)
		res := RunDeadlock(cfg)
		if i == 0 {
			r.PFC = res.PFC
		}
		out += res.Table()
	}
	out += "paper: the deadlock persists even after all servers restart;\n" +
		"broadcast/multicast and flooding must stay out of lossless classes.\n" +
		"irn-no-pfc: with no lossless classes there are no pause frames, so\n" +
		"no cycle can form — selective repeat absorbs the loss instead\n"
	r.Text = out
	return r, nil
}

func runStormScenario(o Options) (Result, error) {
	var r Result
	for _, wd := range []bool{false, true} {
		cfg := DefaultStorm(wd)
		o.into(&cfg.Seed, &cfg.Shards, &cfg.Duration, &cfg.Observe)
		res := RunStorm(cfg)
		if !wd {
			r.PFC = res.PFC
		}
		r.Text += StormIncident(res) +
			fmt.Sprintf("registry snapshot (watchdogs=%v, nonzero pause/drop/watchdog counters):\n", wd) +
			res.Snapshot.Filter(func(e telemetry.Entry) bool {
				return e.Value != 0 && hasAnySuffix(e.Key, "/pause_rx", "/pause_tx", "/drops",
					"/lossless_drops", "/watchdog_trips")
			}).Text() + "\n"
	}
	return r, nil
}

func hasAnySuffix(s string, sfx ...string) bool {
	for _, x := range sfx {
		if strings.HasSuffix(s, x) {
			return true
		}
	}
	return false
}

// runIncidentScenario renders Figure 10 and then the management-plane
// view: the drift check that flags the new switch model's α.
func runIncidentScenario(o Options) (Result, error) {
	r := alphaIncident(o)
	k := sim.NewKernel(1)
	cfg := core.DefaultConfig(topology.RackSpec(2))
	cfg.Alpha = 1.0 / 64 // the new switch type's silent default
	d, err := core.New(k, cfg)
	if err != nil {
		return r, err
	}
	d.Configs.SetDesired(d.Net.Tors[0].Name(), map[string]string{"alpha": "1/16"})
	r.Text += "\nconfiguration drift check (Section 5.1):\n"
	for _, drift := range d.CheckDrift() {
		r.Text += fmt.Sprintln("  DRIFT:", drift)
	}
	return r, nil
}

func runFig6Scenario(o Options) string {
	cfg := DefaultFig6()
	o.into(&cfg.Seed, nil, &cfg.Duration, nil)
	return RunFig6(cfg).Table()
}

func runFig7Scenario(o Options) string {
	cfg := DefaultFig7()
	o.into(&cfg.Seed, &cfg.Shards, &cfg.Measure, nil)
	o = o.with(Options{Tors: cfg.TorPairs, Servers: cfg.ServersPerTor, QPs: cfg.QPsPerServer, Warmup: cfg.Warmup})
	cfg.TorPairs, cfg.ServersPerTor, cfg.QPsPerServer, cfg.Warmup = o.Tors, o.Servers, o.QPs, o.Warmup
	return RunFig7(cfg).Table()
}

func runFig8Scenario(o Options) string {
	cfg := DefaultFig8()
	cfg.Measure = 2 * simtime.Second
	o.into(&cfg.Seed, nil, &cfg.Measure, nil)
	return RunFig8(cfg).Table()
}

// runPingmesh probes an intra-ToR, an intra-podset and a cross-podset
// pair, plus a pair whose target is dead, on the two-podset Clos.
func runPingmesh(o Options) (Result, error) {
	o = o.with(Options{Seed: 1, Duration: simtime.Second})
	k := sim.NewRoot(o.Seed, o.Shards)
	d, err := core.New(k, core.DefaultConfig(topology.Fig7Spec(2)))
	if err != nil {
		return Result{}, err
	}
	pm := monitor.NewPingmesh(k, monitor.DefaultPingmesh())
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
	k.RunUntil(simtime.Time(o.Duration))
	pm.Fold() // a sharded run's RTTs reach the registry here
	snap := k.Metrics().Snapshot()
	return Result{Snapshot: snap, Text: pm.Report() +
		"paper: Pingmesh RTTs are the health signal; probe failures localize incidents\n" +
		"\nregistry snapshot (pingmesh series and nonzero pause/drop counters):\n" +
		snap.Filter(func(e telemetry.Entry) bool {
			return strings.HasPrefix(e.Key, "pingmesh/") ||
				e.Value != 0 && hasAnySuffix(e.Key, "/pause_rx", "/pause_tx", "/drops", "/lossless_drops")
		}).Text()}, nil
}

func runPingmeshSweepScenario(o Options) (Result, error) {
	cfg := DefaultPingmeshSweep()
	cfg.Seed, cfg.Duration = 1, simtime.Second
	o.into(&cfg.Seed, &cfg.Shards, &cfg.Duration, nil)
	if o.Podsets != 0 {
		cfg.Podsets = o.Podsets
	}
	r, err := RunPingmeshSweep(cfg)
	return Result{Text: r.Table()}, err
}

// runMetrics drives two crossing bulk flows into one receiver — enough
// contention to populate pause, ECN and DCQCN counters — and returns the
// whole registry. It builds its cluster as rocesim.NewCluster does.
func runMetrics(o Options) (Result, error) {
	o = o.with(Options{Seed: 1, Duration: 20 * simtime.Millisecond})
	k := sim.NewKernel(o.Seed)
	d, err := core.New(k, core.DefaultConfig(topology.RackSpec(4)))
	if err != nil {
		return Result{}, err
	}
	qa, _ := d.Connect(d.Net.Server(0, 0, 0), d.Net.Server(0, 0, 2), core.ClassBulk)
	qb, _ := d.Connect(d.Net.Server(0, 0, 1), d.Net.Server(0, 0, 2), core.ClassBulk)
	for i := 0; i < 8; i++ {
		qa.Post(transport.OpSend, 1<<20, nil)
		qb.Post(transport.OpWrite, 1<<20, nil)
	}
	k.RunUntil(k.Now().Add(o.Duration))
	return SnapshotResult(k.Metrics().Snapshot())
}

// SnapshotResult renders a registry snapshot as text and JSON.
func SnapshotResult(snap *telemetry.Snapshot) (Result, error) {
	b, err := snap.JSON()
	return Result{Text: snap.Text(), JSON: append(b, '\n'), Snapshot: snap}, err
}

// runCapture taps the congested receiver of a 3:1 incast. The tap sees
// both directions of the cable, including the PFC pause frames the NIC
// and its ToR exchange.
func runCapture(o Options) (Result, error) {
	o = o.with(Options{Seed: 1, Duration: 2 * simtime.Millisecond})
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		return Result{}, err
	}
	k := sim.NewKernel(o.Seed)
	d, err := core.New(k, core.DefaultConfig(topology.RackSpec(4)))
	if err != nil {
		return Result{}, err
	}
	receiver := d.Net.Server(0, 0, 0)
	tap := &pcap.Tap{W: w, Now: k.Now}
	receiver.Tor.Egress(receiver.TorPort).Link().Tap = func(p *packet.Packet) { tap.Capture(p) }
	for i := 1; i <= 3; i++ {
		q, _ := d.Connect(d.Net.Server(0, 0, i), receiver, core.ClassBulk)
		(&workload.Streamer{QP: q, Size: 256 << 10}).Start(2)
	}
	k.RunUntil(simtime.Time(o.Duration))
	r := Result{Pcap: buf.Bytes()}
	if tap.Errs > 0 {
		r.Failures = []string{fmt.Sprint("capture errors: ", tap.Errs)}
	}
	return r, nil
}

func chaos(campaign func(seed int64) faults.Campaign) func(Options) (Result, error) {
	return func(o Options) (Result, error) {
		sc := campaign(o.with(Options{Seed: 1}).Seed).Run()
		b, err := sc.JSON()
		r := Result{Text: sc.Text(), JSON: append(b, '\n')}
		if sc.Failed() {
			r.Failures = []string{"expected safeguard did not fire"}
		}
		return r, err
	}
}

func transports(quick bool) func(Options) (Result, error) {
	return func(o Options) (Result, error) {
		cfg := DefaultTransportMatrix(quick)
		o.into(&cfg.Seed, nil, nil, nil)
		m := RunTransportMatrix(cfg)
		return withJSON(Result{Text: m.Table(), Failures: m.Verdict()}, m.Cells)
	}
}

// runHealthScenarios runs every health scenario; the JSON rendering is
// the array of their reports.
func runHealthScenarios(o Options) (Result, error) {
	var r Result
	var reports []*health.Report
	for i, n := range HealthScenarios() {
		cfg := DefaultHealth(n)
		o.into(&cfg.Seed, nil, &cfg.Duration, nil)
		rep, err := RunHealth(cfg)
		if err != nil {
			return r, err
		}
		if i > 0 {
			r.Text += "\n"
		}
		r.Text += rep.Text()
		if rep.Breached {
			r.Failures = append(r.Failures, n+": SLO breached")
		}
		reports = append(reports, rep)
	}
	return withJSON(r, reports)
}

func runRollout(o Options) (Result, error) {
	o = o.with(Options{Seed: 1, Shards: 1})
	sc := rollout.DefaultCampaign(o.Seed, o.Shards).Run()
	b, err := sc.JSON()
	r := Result{Text: sc.Text(), JSON: append(b, '\n')}
	if sc.Failed() {
		r.Failures = []string{"a rollout case missed its expected outcome"}
	}
	return r, err
}

func runTenants(o Options) (Result, error) {
	o = o.with(Options{Seed: 1, Shards: 1})
	sc := tenant.Run(o.Seed, o.Shards)
	b, err := sc.JSON()
	r := Result{Text: sc.Text(), JSON: append(b, '\n')}
	if sc.Failed() {
		r.Failures = []string{"tenant isolation contract missed"}
	}
	return r, err
}

// report regenerates the fast experiments in one rendering: the §4.1
// livelock matrix, the Figure 4 deadlock with and without the fix, the
// Figure 10 incident, the §4.4 slow-receiver matrix, the §1 CPU numbers
// and the §8.1 spraying ablation. all adds scaled Figures 6, 8, 7 and 9.
// Its sections are its own runs, not the standalone scenarios.
func report(all bool) string {
	out := "==== RDMA over Commodity Ethernet at Scale — reproduction report ====\n\n" +
		livelockMatrix(Options{Duration: 50 * simtime.Millisecond}) + "\n" +
		"Figure 4 — PFC deadlock\n" +
		RunDeadlock(DefaultDeadlock(false)).Table() +
		RunDeadlock(DefaultDeadlock(true)).Table() + "\n" +
		alphaIncident(Options{}).Text + "\n" +
		SlowReceiverMatrix() + "\n" +
		RunCPU(DefaultCPU()).Table() + "\n" +
		SprayAblation()
	if !all {
		return out
	}
	cfg6 := DefaultFig6()
	cfg6.Clients = 4
	cfg6.Duration = simtime.Second
	cfg8 := DefaultFig8()
	cfg8.Pairs = 8
	cfg8.Measure = 30 * simtime.Millisecond
	cfg7 := DefaultFig7()
	cfg7.TorPairs, cfg7.ServersPerTor, cfg7.QPsPerServer = 4, 4, 4
	cfg7.Warmup = 15 * simtime.Millisecond
	cfg7.Measure = 5 * simtime.Millisecond
	return out + "\n" +
		RunFig6(cfg6).Table() + "\n" +
		RunFig8(cfg8).Table() + "\n" +
		RunFig7(cfg7).Table() + "\n" +
		StormIncident(RunStorm(DefaultStorm(false))) +
		StormIncident(RunStorm(DefaultStorm(true)))
}
