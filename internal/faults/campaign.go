package faults

import (
	"bytes"
	"hash/fnv"
	"math"
	"strings"

	"rocesim/internal/core"
	"rocesim/internal/fabric"
	"rocesim/internal/flighttrace"
	"rocesim/internal/health"
	"rocesim/internal/invariant"
	"rocesim/internal/nic"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
	"rocesim/internal/topology"
	"rocesim/internal/workload"
)

// Scenario is one column of the campaign matrix: a deployment with
// steady traffic whose throughput the runner samples, plus named roles
// that fault specs target ("uplink", "rogue-nic", ...), so one fault
// spec applies across scenarios with different concrete devices.
type Scenario struct {
	Name     string
	Duration simtime.Duration
	// FaultAt/FaultDur position the injected fault; zero defaults to
	// Duration/4 and Duration/2.
	FaultAt  simtime.Time
	FaultDur simtime.Duration
	// Transport selects the fabric contract the deployment runs under
	// (zero value: the paper's PFC+DCQCN lossless stack). The runner
	// passes it to Build and records it in the cell.
	Transport core.TransportMode
	// Roles maps role names to injector targets.
	Roles map[string]string
	// Build constructs the deployment and starts traffic, returning the
	// streams whose progress defines the cell's throughput. The mode is
	// the scenario's Transport, passed in so shared constructors can set
	// cfg.Transport without closing over the field.
	Build func(k *sim.Kernel, mode core.TransportMode) (*core.Deployment, []*workload.Streamer)
}

// FaultSpec is one row of the matrix. A spec only runs against scenarios
// that define its Role.
type FaultSpec struct {
	Name  string
	Kind  Kind
	Role  string
	Param float64
	// Permanent faults are never reverted (config faults stay wrong
	// until a human rolls them back).
	Permanent bool
	// Expect names the safeguard that should fire for this fault
	// ("nic-watchdog", "ecmp-failover", "go-back-n", "dcqcn",
	// "config-drift", "switch-watchdog").
	Expect string
}

// Campaign sweeps Faults × Scenarios and scores every cell.
type Campaign struct {
	Seed      int64
	Scenarios []Scenario
	Faults    []FaultSpec
}

// How a cell is scored. The SLO objectives page on one device's
// pause-rx or lossless-drop delta in one scrape interval reaching
// detectPauseRx or detectLosslessDrops; at 10GbE, pause refreshes
// arrive at most ~6 per 10 ms interval. A throughput window counts as
// recovered at recoveredFrac of the pre-fault mean.
const (
	scrapeInterval      = 10 * simtime.Millisecond
	detectPauseRx       = 4
	detectLosslessDrops = 1
	recoveredFrac       = 0.5
)

// Run executes every applicable cell sequentially (cells share nothing;
// sequential execution keeps ordering and output deterministic) and
// returns the survivability scorecard.
func (c Campaign) Run() *Scorecard {
	sc := &Scorecard{Seed: c.Seed}
	for _, s := range c.Scenarios {
		for _, f := range c.Faults {
			if _, ok := s.Roles[f.Role]; !ok {
				continue
			}
			sc.Cells = append(sc.Cells, c.runCell(s, f))
		}
	}
	return sc
}

// runCell runs one (scenario, fault) pair in its own kernel, seeded from
// the campaign seed and the cell name so cells are independent but
// reproducible, with the invariant auditor and a flight recorder
// attached, and a health scraper that evaluates the SLO objectives and
// samples per-interval throughput.
func (c Campaign) runCell(s Scenario, f FaultSpec) Cell {
	cell := Cell{Scenario: s.Name, Fault: f.Name, Transport: s.Transport.String(), Expect: f.Expect}
	h := fnv.New64a()
	h.Write([]byte(s.Name + "/" + f.Name))
	k := sim.NewKernel(c.Seed ^ int64(h.Sum64()))
	aud := invariant.Attach(k, invariant.Options{})
	rec := flighttrace.NewRecorder(128).Attach(k.Trace(), telemetry.EvAll)

	d, streams := s.Build(k, s.Transport)

	faultAt := s.FaultAt
	if faultAt == 0 {
		faultAt = simtime.Time(s.Duration / 4)
	}
	faultDur := s.FaultDur
	if faultDur == 0 {
		faultDur = s.Duration / 2
	}
	if f.Permanent {
		faultDur = 0
	}
	inj := NewInjector(k, Schedule{{
		At: faultAt, Duration: faultDur, Kind: f.Kind,
		Target: s.Roles[f.Role], Param: f.Param,
	}})
	if inj.Network() == nil {
		panic("faults: scenario build did not announce a topology")
	}

	// The SLO objectives watch pause-rx and lossless-drop deltas per
	// scrape through the health plane's burn-rate engine. Both windows
	// span a single scrape: the campaign's faults include one-interval
	// blips (a flap's single pause burst) that must page, so the
	// multi-window discipline is the health scenarios' job. The scraper
	// runs in the kernel's observer band and never perturbs component
	// events.
	hs := health.NewScraper(k, health.ScrapeConfig{
		Interval: scrapeInterval,
		Filter: func(key string) bool {
			return strings.HasSuffix(key, "/pause_rx") || strings.HasSuffix(key, "/lossless_drops")
		},
	})
	eng := health.NewEngine(k, hs)
	eng.Add(health.Objective{
		Name: "pause-rx", Bad: health.OverDelta(hs, "/pause_rx", detectPauseRx),
		LongWindow: scrapeInterval,
	})
	eng.Add(health.Objective{
		Name: "lossless-drops", Bad: health.OverDelta(hs, "/lossless_drops", detectLosslessDrops),
		LongWindow: scrapeInterval,
	})

	// Per-interval progress of the measured streams, in bytes, sampled
	// on the scrape so windows align with the objectives' view.
	var windows []float64
	var windowEnd []simtime.Time
	var lastBytes uint64
	hs.OnScrape(func(now simtime.Time) {
		var tot uint64
		for _, st := range streams {
			tot += st.Done * uint64(st.Size)
		}
		windows = append(windows, float64(tot-lastBytes))
		windowEnd = append(windowEnd, now)
		lastBytes = tot
	})
	hs.Start()

	k.RunUntil(simtime.Time(s.Duration))
	aud.Finish()
	snap := k.Metrics().Snapshot()

	// Throughput phases. Windows are timestamped at their end.
	gbps := func(bytes float64) float64 { return bytes * 8 / scrapeInterval.Seconds() / 1e9 }
	faultEnd := simtime.Time(s.Duration)
	if faultDur > 0 {
		faultEnd = faultAt.Add(faultDur)
	}
	var base, during, after []float64
	for i, end := range windowEnd {
		switch {
		case !end.After(faultAt):
			base = append(base, windows[i])
		case !end.After(faultEnd):
			during = append(during, windows[i])
		default:
			after = append(after, windows[i])
		}
	}
	cell.BaselineGbps = round3(gbps(mean(base)))
	cell.DuringGbps = round3(gbps(mean(during)))
	cell.AfterGbps = round3(gbps(mean(after)))

	// Recovery: the cell has recovered when the last window at or below
	// recoveredFrac × baseline is behind us. A cell whose final window is
	// still degraded ends unrecovered and gets a flight-recorder dump.
	floor := recoveredFrac * mean(base)
	lastBad := -1
	for i, end := range windowEnd {
		if end.After(faultAt) && windows[i] < floor {
			lastBad = i
		}
	}
	switch {
	case lastBad < 0:
		cell.Recovered = true // the fault never degraded the measured flows
	case lastBad == len(windowEnd)-1:
		cell.Recovered = false
	default:
		cell.Recovered = true
		cell.RecoveryMS = round3(windowEnd[lastBad].Sub(faultAt).Seconds() * 1e3)
	}

	// Time-to-detect: the burn-rate engine's first breach at or after
	// fault onset, in ns from onset. A cell whose only breach opened
	// before the fault and is still open at end of run (the unsafe fleet
	// runs congested enough to keep an objective hot) scores 0 — the
	// pager was already ringing.
	cell.SLODetectNs = -1
	if at, ok := eng.FirstBreachAfter(faultAt); ok {
		cell.SLODetectNs = int64(at.Sub(faultAt) / simtime.Nanosecond)
	} else if eng.Breached() {
		cell.SLODetectNs = 0
	}

	cell.Violations = aud.Total()
	cell.Flags = len(aud.Flags())
	cell.Drifts = len(d.CheckDrift())
	cell.Safeguards = c.safeguards(d, snap, f.Kind, s.Transport, cell)
	for _, sg := range cell.Safeguards {
		if sg == cell.Expect {
			cell.ExpectFired = true
		}
	}

	if !cell.Recovered {
		var buf bytes.Buffer
		if err := rec.WriteText(&buf); err == nil {
			cell.DumpLines = bytes.Count(buf.Bytes(), []byte{'\n'})
		}
	}
	rec.Close()
	return cell
}

// safeguards reports which of the paper's defenses demonstrably acted
// during the cell, from the end-of-run registry snapshot.
func (c Campaign) safeguards(d *core.Deployment, snap *telemetry.Snapshot, kind Kind, mode core.TransportMode, cell Cell) []string {
	var out []string
	nicTrips, swTrips := 0.0, 0.0
	for _, s := range d.Net.Servers {
		nicTrips += snap.Value(s.NIC.Name() + "/watchdog_trips")
	}
	for _, sw := range d.Net.Switches() {
		swTrips += snap.Value(sw.Name() + "/watchdog_trips")
	}
	if nicTrips > 0 {
		out = append(out, "nic-watchdog")
	}
	if swTrips > 0 {
		out = append(out, "switch-watchdog")
	}
	if snap.SumSuffix("/qp_retx_packets") > 0 {
		// The same counter names a different defense depending on the
		// transport: cumulative stacks re-walk the window (go-back-N),
		// IRN repairs only the lost PSNs.
		if mode.IRN() {
			out = append(out, "selective-repeat")
		} else {
			out = append(out, "go-back-n")
		}
	}
	if snap.SumSuffix("/cnps_tx") > 0 {
		out = append(out, "dcqcn")
	}
	if cell.Drifts > 0 {
		out = append(out, "config-drift")
	}
	// ECMP failover is visible as throughput surviving a dead path: the
	// fabric kept traffic flowing while a link or switch the flows
	// hashed across was gone. The bar is 0.4 × baseline: losing one of
	// two uplinks halves capacity even with perfect withdrawal, so
	// requiring more would mistake a capacity cut for a failover miss.
	switch kind {
	case LinkDown, LinkFlap, SwitchReboot:
		if cell.DuringGbps >= 0.4*cell.BaselineGbps && cell.BaselineGbps > 0 {
			out = append(out, "ecmp-failover")
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// scaleWatchdogs shrinks the §4.3 watchdog time constants from their
// production values (order 100 ms) to simulation scale, so a campaign
// cell can show trip AND recovery inside a ~160 ms run instead of
// needing seconds of simulated (minutes of wall-clock) time.
func scaleWatchdogs(cfg *core.Config) {
	cfg.SwitchTweak = func(level string, c *fabric.Config) {
		if c.Watchdog.Enabled {
			c.Watchdog.TripWindow = 30 * simtime.Millisecond
			c.Watchdog.ReenableAfter = 60 * simtime.Millisecond
			c.Watchdog.Poll = 5 * simtime.Millisecond
		}
	}
	cfg.NICTweak = func(c *nic.Config) {
		if c.Watchdog.Enabled {
			c.Watchdog.Window = 30 * simtime.Millisecond
			c.Watchdog.Poll = 5 * simtime.Millisecond
		}
	}
}

// RackPairScenario is the campaign's workhorse: the storm-experiment
// shape at campaign scale — two ToRs under two Leafs at 10GbE, two
// victim streams ToR-to-ToR and two feeders converging on one server,
// the traffic whose head-of-line blocking turned one bad NIC into the
// paper's network-wide incident. mitigated=false builds the
// pre-mitigation fleet (§4.3 watchdogs and DCQCN off) whose cells show
// what the safeguards are for.
func RackPairScenario(name string, duration simtime.Duration, mitigated bool) Scenario {
	return Scenario{
		Name:     name,
		Duration: duration,
		Roles: map[string]string{
			"rogue-nic":   "nic:srv-0-0-4",
			"victim-nic":  "nic:srv-0-1-0",
			"uplink":      "link:tor-0-0~leaf-0-0",
			"victim-link": "link:tor-0-0~srv-0-0-0",
			"tor":         "switch:tor-0-0",
			"leaf":        "switch:leaf-0-0",
		},
		Build: func(k *sim.Kernel, mode core.TransportMode) (*core.Deployment, []*workload.Streamer) {
			spec := topology.Spec{
				Name: "rack-pair", Podsets: 1, LeafsPerPod: 2, TorsPerPod: 2,
				ServersPerTor: 5, LinkRate: 10 * simtime.Gbps,
				ServerCableM: 2, LeafCableM: 20,
			}
			cfg := core.DefaultConfig(spec)
			cfg.Transport = mode
			if !mitigated {
				cfg.Safety.NICWatchdog = false
				cfg.Safety.SwitchWatchdog = false
				cfg.Safety.DCQCN = false
			}
			scaleWatchdogs(&cfg)
			d, err := core.New(k, cfg)
			if err != nil {
				panic(err)
			}
			net := d.Net
			streams := make([]*workload.Streamer, 2)
			for i := range streams {
				qa, _ := d.Connect(net.Server(0, 0, i), net.Server(0, 1, i), core.ClassBulk)
				streams[i] = &workload.Streamer{QP: qa, Size: 1 << 20}
				streams[i].Start(2)
			}
			rogue := net.Server(0, 0, 4)
			for i := 2; i < 4; i++ {
				qa, _ := d.Connect(net.Server(0, 1, i), rogue, core.ClassBulk)
				(&workload.Streamer{QP: qa, Size: 1 << 20}).Start(2)
			}
			return d, streams
		},
	}
}

// ClosScenario is the cross-podset column: two podsets joined by four
// spines, with every measured stream crossing the spine layer — the
// traffic that exercises ECMP failover around dead Leaf–Spine links and
// spine reboots.
func ClosScenario(name string, duration simtime.Duration) Scenario {
	return Scenario{
		Name:     name,
		Duration: duration,
		Roles: map[string]string{
			"core-link": "link:leaf-0-0~spine-0",
			"spine":     "switch:spine-0",
			"leaf":      "switch:leaf-0-0",
		},
		Build: func(k *sim.Kernel, mode core.TransportMode) (*core.Deployment, []*workload.Streamer) {
			spec := topology.Spec{
				Name: "clos", Podsets: 2, LeafsPerPod: 2, TorsPerPod: 2,
				ServersPerTor: 2, Spines: 4, LinkRate: 10 * simtime.Gbps,
				ServerCableM: 2, LeafCableM: 20, SpineCableM: 300,
			}
			cfg := core.DefaultConfig(spec)
			cfg.Transport = mode
			scaleWatchdogs(&cfg)
			d, err := core.New(k, cfg)
			if err != nil {
				panic(err)
			}
			net := d.Net
			var streams []*workload.Streamer
			for t := 0; t < 2; t++ {
				for i := 0; i < 2; i++ {
					qa, _ := d.Connect(net.Server(0, t, i), net.Server(1, t, i), core.ClassBulk)
					st := &workload.Streamer{QP: qa, Size: 1 << 20}
					st.Start(2)
					streams = append(streams, st)
				}
			}
			return d, streams
		},
	}
}

// DefaultCampaign is the matrix `roce chaos` runs: every
// fault in the library, each against the scenario whose role it targets.
// The unsafe column reruns the worst faults against the pre-mitigation
// fleet: its storm cell never recovers (exercising the flight-recorder
// dump path), and its misconfiguration cell produces the §6.2-style
// lossless drops that surface as invariant violations.
func DefaultCampaign(seed int64) Campaign {
	safe := RackPairScenario("rack-pair", 160*simtime.Millisecond, true)
	unsafe := RackPairScenario("rack-pair-unsafe", 160*simtime.Millisecond, false)
	// The unsafe column hosts only the unprotected-storm and
	// misconfiguration cells, under role names of its own so the
	// protected expectations don't apply.
	unsafe.Roles = map[string]string{
		"rogue-nic-raw": unsafe.Roles["rogue-nic"],
		"tor-mmu":       unsafe.Roles["tor"],
	}
	// The IRN columns rerun the rack pair on a lossy fabric (no PFC,
	// selective repeat), without and with ECN rate control. Their roles
	// get irn-prefixed names so the lossless fleet's expectations —
	// go-back-n, watchdogs — don't apply to cells where they can't fire.
	irn := RackPairScenario("rack-pair-irn", 160*simtime.Millisecond, true)
	irn.Transport = core.TransportIRNNoPFC
	irn.Roles = map[string]string{
		"irn-rogue-nic":   irn.Roles["rogue-nic"],
		"irn-victim-link": irn.Roles["victim-link"],
		"irn-uplink":      irn.Roles["uplink"],
	}
	irnECN := RackPairScenario("rack-pair-irn-ecn", 160*simtime.Millisecond, true)
	irnECN.Transport = core.TransportIRNECN
	irnECN.Roles = map[string]string{
		"irn-ecn-victim-link": irnECN.Roles["victim-link"],
		"irn-ecn-victim-nic":  irnECN.Roles["victim-nic"],
	}
	return Campaign{
		Seed: seed,
		Scenarios: []Scenario{
			safe,
			unsafe,
			ClosScenario("clos", 160*simtime.Millisecond),
			irn,
			irnECN,
		},
		Faults: []FaultSpec{
			{Name: "nic-pause-storm", Kind: NICPauseStorm, Role: "rogue-nic", Permanent: true, Expect: "nic-watchdog"},
			{Name: "nic-rx-degrade", Kind: NICRxDegrade, Role: "victim-nic", Expect: "dcqcn"},
			{Name: "uplink-down", Kind: LinkDown, Role: "uplink", Expect: "ecmp-failover"},
			{Name: "uplink-flap", Kind: LinkFlap, Role: "uplink", Expect: "ecmp-failover"},
			{Name: "srv-link-corrupt", Kind: LinkCorrupt, Role: "victim-link", Expect: "go-back-n"},
			{Name: "leaf-reboot", Kind: SwitchReboot, Role: "leaf", Expect: "ecmp-failover"},
			{Name: "alpha-1-64", Kind: CfgAlpha, Role: "tor", Param: 1.0 / 64, Permanent: true, Expect: "config-drift"},
			// Unsafe column: the storm with no watchdog to stop it (no
			// expected safeguard — the point is that nothing fires), and
			// the misclassified lossless class with no DCQCN to hide it.
			{Name: "nic-pause-storm", Kind: NICPauseStorm, Role: "rogue-nic-raw", Permanent: true},
			{Name: "lossless-as-lossy", Kind: CfgLosslessAsLossy, Role: "tor-mmu", Param: 4, Permanent: true, Expect: "go-back-n"},
			{Name: "core-link-down", Kind: LinkDown, Role: "core-link", Expect: "ecmp-failover"},
			{Name: "spine-reboot", Kind: SwitchReboot, Role: "spine", Expect: "ecmp-failover"},
			// IRN columns: the same wire corruption that demands go-back-N
			// on the lossless fleet is repaired by selective retransmit;
			// ECMP withdrawal works the same either way; and the two
			// no-expect cells are the point of the lossy fabric — a pause
			// storm has no blast radius without PFC to propagate it, and a
			// degraded receiver is absorbed by the BDP flight cap (the
			// sender ACK-clocks down to the receiver's pace) where the
			// lossless fleet needs DCQCN to survive the same fault.
			{Name: "srv-link-corrupt", Kind: LinkCorrupt, Role: "irn-victim-link", Expect: "selective-repeat"},
			{Name: "nic-pause-storm", Kind: NICPauseStorm, Role: "irn-rogue-nic", Permanent: true},
			{Name: "uplink-down", Kind: LinkDown, Role: "irn-uplink", Expect: "ecmp-failover"},
			{Name: "srv-link-corrupt", Kind: LinkCorrupt, Role: "irn-ecn-victim-link", Expect: "selective-repeat"},
			{Name: "nic-rx-degrade", Kind: NICRxDegrade, Role: "irn-ecn-victim-nic"},
			// Cross-class misconfiguration (the multi-tenant QoS plane's
			// failure mode): the ToR's QoS map folds the bulk class into
			// the real-time PG — pause pairing breaks on the first hop and
			// the shared PG overflows — and a NIC's CNP priority lands in
			// a lossy class. Both are declared-config faults the drift
			// checker pages on.
			{Name: "shared-pg", Kind: CfgSharedPG, Role: "tor", Param: 4, Permanent: true, Expect: "config-drift"},
			{Name: "cnp-lossy-class", Kind: CfgCNPLossy, Role: "victim-nic", Param: 1, Permanent: true, Expect: "config-drift"},
		},
	}
}

// QuickCampaign is the small matrix behind `make chaos`: three fast
// cells covering a dead uplink (ECMP withdrawal), a corrupted server
// cable (go-back-N) and a degraded receiver (DCQCN), at durations short
// enough for a CI gate.
func QuickCampaign(seed int64) Campaign {
	return Campaign{
		Seed: seed,
		Scenarios: []Scenario{
			RackPairScenario("rack-pair", 120*simtime.Millisecond, true),
		},
		Faults: []FaultSpec{
			{Name: "uplink-down", Kind: LinkDown, Role: "uplink", Expect: "ecmp-failover"},
			{Name: "srv-link-corrupt", Kind: LinkCorrupt, Role: "victim-link", Expect: "go-back-n"},
			{Name: "nic-rx-degrade", Kind: NICRxDegrade, Role: "victim-nic", Expect: "dcqcn"},
		},
	}
}
