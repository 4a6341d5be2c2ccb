package rollout

import (
	"hash/fnv"
	"rocesim/internal/core"
	"rocesim/internal/fabric"
	"rocesim/internal/health"
	"rocesim/internal/invariant"
	"rocesim/internal/monitor"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/topology"
	"rocesim/internal/workload"
)

// Case is one campaign column: a Change pushed through the full wave
// ladder, with the outcome the ladder must produce.
//
// Expect values: "complete" (every wave clean, zero rollbacks),
// "rollback@canary" (caught at the canary, blast radius one device),
// "rollback<=podset" (caught before the fleet wave, blast radius within
// the canary podset).
type Case struct {
	Name   string
	Change Change
	Expect string
}

// Campaign drives rollout Cases against a two-podset Clos fleet with
// live cross-podset traffic and a persistent incast, and scores each on
// where the wave ladder stopped it, time-to-detect, blast radius, and
// goodput recovery.
type Campaign struct {
	Seed   int64
	Shards int
	Cases  []Case
}

// DefaultCampaign is the matrix `roce rollout` runs: two good config
// pushes that must reach the whole fleet (a buffer α bump and a
// per-class ECN retune), and four §6.2-style bad payloads — a pipeline
// that ships the wrong α, the same pipeline skipping the canary (the
// rollout that passes its canary and breaks the fleet), a
// drift-invisible MMU misprogramming that only the health gates can
// catch, and a QoS-map fat-finger that folds two traffic classes into
// one priority group.
func DefaultCampaign(seed int64, shards int) Campaign {
	faithless := func(sw *fabric.Switch, apply func(key, val string) error) error {
		return apply("alpha", "1/64")
	}
	return Campaign{
		Seed:   seed,
		Shards: shards,
		Cases: []Case{
			{
				Name:   "good-alpha-1-8",
				Change: Change{Name: "alpha-1-8", Intent: map[string]string{"alpha": "1/8"}},
				Expect: "complete",
			},
			{
				// The §6.2 incident as a rollout: the operator intends
				// α = 1/8, the provisioning pipeline ships 1/64. The drift
				// gate sees desired != running at the canary's first gate
				// tick.
				Name: "bad-alpha-canary",
				Change: Change{
					Name:   "alpha-1-8",
					Intent: map[string]string{"alpha": "1/8"},
					Write:  faithless,
				},
				Expect: "rollback@canary",
			},
			{
				// The canary-evading variant: the pipeline is faithful on
				// the canary and wrong everywhere else, so the canary soaks
				// clean and the ladder must catch it at the next stage.
				Name: "bad-alpha-evading",
				Change: Change{
					Name:   "alpha-1-8",
					Intent: map[string]string{"alpha": "1/8"},
					Write: func(sw *fabric.Switch, apply func(key, val string) error) error {
						if sw.Name() == "tor-0-0" {
							return apply("alpha", "1/8")
						}
						return faithless(sw, apply)
					},
				},
				Expect: "rollback<=podset",
			},
			{
				// Drift-invisible misprogramming: the pipeline writes the
				// intended α faithfully to the config plane but programs the
				// ASIC wrong — the bulk class flipped to lossy and the
				// MMU-side α crushed below the DCQCN operating point. No
				// config reader sees either, so the drift gate stays green;
				// the moment the incast ToR is touched, congestion drops
				// surface on the declared-lossless class and the invariant
				// and SLO gates catch what drift checking cannot.
				Name: "lossless-as-lossy",
				Change: Change{
					Name:   "alpha-1-8",
					Intent: map[string]string{"alpha": "1/8"},
					Write: func(sw *fabric.Switch, apply func(key, val string) error) error {
						if err := apply("alpha", "1/8"); err != nil {
							return err
						}
						sw.MisclassifyLossless(core.ClassBulk, false)
						sw.MMU().SetAlpha(1.0 / 256)
						return nil
					},
				},
				Expect: "rollback<=podset",
			},
			{
				// The multi-tenant good case: retune the real-time class's
				// ECN marking profile (§5-style DCQCN parameter change) as a
				// staged per-class push. The value is the codec's canonical
				// rendering, so a faithful write leaves desired == running
				// and every wave soaks clean.
				Name: "good-ecn-per-class",
				Change: Change{
					Name:   "ecn-rt-retune",
					Intent: map[string]string{"ecn_classes": "pg3:20480/81920/0.20"},
				},
				Expect: "complete",
			},
			{
				// The cross-class fat-finger: the operator intends an α bump,
				// but the pipeline also ships a QoS map that folds the bulk
				// class into the real-time class's priority group — two
				// tenants suddenly sharing one PG's buffer and pause state.
				// qos_map is not in the intent, so desired stays "identity"
				// and the drift gate trips at the canary's first tick.
				Name: "shared-pg-fatfinger",
				Change: Change{
					Name:   "alpha-1-8",
					Intent: map[string]string{"alpha": "1/8"},
					Write: func(sw *fabric.Switch, apply func(key, val string) error) error {
						if err := apply("alpha", "1/8"); err != nil {
							return err
						}
						return apply("qos_map", "4->3")
					},
				},
				Expect: "rollback@canary",
			},
		},
	}
}

// Run executes every case sequentially (cases share nothing; sequential
// execution keeps output deterministic) and returns the scorecard.
func (c Campaign) Run() *Scorecard {
	sc := &Scorecard{Seed: c.Seed}
	for _, cs := range c.Cases {
		sc.Cells = append(sc.Cells, c.runCase(cs))
	}
	return sc
}

// Campaign timing. The rollout starts after four scrape intervals of
// baseline, and the run leaves ~60 ms after the last wave's gate for
// rollback, settling and recovery scoring. Every controller instant is
// offset one picosecond from the millisecond grid so no global
// controller event ever shares an instant with component events or the
// observer-band scrapers — the ordering-tie rule differs between
// sharded and unsharded execution, and never tying is what keeps the
// scorecard byte-identical for any shard count (DESIGN.md §13).
// The scrape interval is off the grid by one picosecond too, so scrapes
// never tie with data events either.
const (
	rolloutStart   = simtime.Time(40*simtime.Millisecond) + 1
	campaignEnd    = simtime.Time(200 * simtime.Millisecond)
	scrapeInterval = 10*simtime.Millisecond + 1
)

// runCase runs one Case in its own sharded kernel, seeded from the
// campaign seed and the case name.
func (c Campaign) runCase(cs Case) Cell {
	cell := Cell{Case: cs.Name, Expect: cs.Expect}
	shards := c.Shards
	if shards < 1 {
		shards = 1
	}
	h := fnv.New64a()
	h.Write([]byte(cs.Name))
	k := sim.NewRoot(c.Seed^int64(h.Sum64()), shards)
	aud := invariant.Attach(k, invariant.Options{})

	// Two podsets, two ToRs each, two spines: big enough for the full
	// canary → tor → podset → fleet ladder (10 switches), small enough
	// to run four cases in a CI gate.
	spec := topology.Spec{
		Name: "rollout-fleet", Podsets: 2, LeafsPerPod: 2, TorsPerPod: 2,
		ServersPerTor: 4, Spines: 2, LinkRate: 10 * simtime.Gbps,
		ServerCableM: 2, LeafCableM: 20, SpineCableM: 300,
	}
	d, err := core.New(k, core.DefaultConfig(spec))
	if err != nil {
		panic(err)
	}
	net := d.Net

	// Measured streams cross the spine in both directions; the incast —
	// three feeders converging on srv-0-1-1 — keeps tor-0-1 congested
	// for the whole run. The canary tor-0-0 carries only clean traffic:
	// a rollout payload whose damage needs congestion to surface
	// (lossless-as-lossy) soaks clean on the canary and must be caught
	// by the later waves, which is the scenario's point.
	streams := make([]*workload.Streamer, 2)
	for i, pair := range [][2]*topology.Server{
		{net.Server(0, 0, 0), net.Server(1, 0, 0)},
		{net.Server(0, 1, 0), net.Server(1, 1, 0)},
	} {
		qa, _ := d.Connect(pair[0], pair[1], core.ClassBulk)
		streams[i] = &workload.Streamer{QP: qa, Size: 1 << 20}
		streams[i].Start(2)
	}
	for _, src := range []*topology.Server{
		net.Server(0, 1, 2), net.Server(1, 0, 1), net.Server(1, 1, 1),
	} {
		qa, _ := d.Connect(src, net.Server(0, 1, 1), core.ClassBulk)
		(&workload.Streamer{QP: qa, Size: 1 << 20}).Start(2)
	}

	// Pingmesh at every scope feeds the RTT gate; 2 ms probes give each
	// scope's soak window enough samples to be judged.
	pm := monitor.NewPingmesh(k, monitor.PingmeshConfig{
		ProbeSize: 512, Interval: 2 * simtime.Millisecond, Timeout: 50 * simtime.Millisecond,
	})
	for _, pair := range [][2]*topology.Server{
		{net.Server(0, 0, 2), net.Server(0, 0, 3)}, // tor
		{net.Server(0, 0, 2), net.Server(0, 1, 3)}, // podset
		{net.Server(0, 0, 3), net.Server(1, 0, 3)}, // dc
		{net.Server(0, 1, 3), net.Server(1, 1, 3)}, // dc
	} {
		pm.AddPair(net, pair[0], pair[1])
	}
	pm.Start()

	// The SLO gate watches congestion drops on the lossless classes —
	// the §6.2 signature — through the health plane's burn-rate engine.
	hs := health.NewScraper(k, health.ScrapeConfig{
		Interval: scrapeInterval,
		Filter: func(key string) bool {
			return hasSuffix(key, "/lossless_drops")
		},
	})
	eng := health.NewEngine(k, hs)
	eng.Add(health.Objective{
		Name: "lossless-drops", Bad: health.OverDelta(hs, "/lossless_drops", 1),
		LongWindow: scrapeInterval,
	})
	hs.Start()

	// Per-interval goodput of the measured streams.
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

	waves := PlanWaves(net)
	ctrl := New(k, net, Config{
		Change: cs.Change,
		Waves:  waves,
		Start:  rolloutStart,
		Gates: Gates{
			Store:   d.Configs,
			Mesh:    pm,
			Engine:  eng,
			Auditor: aud,
		},
	})
	ctrl.Start()

	k.RunUntil(campaignEnd)
	aud.Finish()

	r := ctrl.Result()
	cell.Completed = r.Completed
	cell.RolledBack = r.RolledBack
	cell.Gate = r.Gate
	cell.GateDetail = r.GateDetail
	cell.TrippedWave = r.TrippedWave
	cell.Touched = r.Touched
	cell.Fleet = r.Fleet
	cell.BlastRadius = r.BlastRadius
	cell.DetectNs = r.DetectNs
	cell.RecoverNs = r.RecoverNs
	cell.ResidualDrifts = r.ResidualDrifts
	cell.Waves = r.Waves
	cell.Log = r.Log

	// Goodput: baseline is the pre-rollout windows, final the last three.
	gbps := func(bytes float64) float64 { return bytes * 8 / scrapeInterval.Seconds() / 1e9 }
	var base []float64
	for i, end := range windowEnd {
		if !end.After(rolloutStart) {
			base = append(base, windows[i])
		}
	}
	final := windows
	if len(final) > 3 {
		final = final[len(final)-3:]
	}
	cell.BaselineGbps = round3(gbps(mean(base)))
	cell.FinalGbps = round3(gbps(mean(final)))
	cell.Recovered = mean(final) >= 0.5*mean(base)

	cell.ExpectMet = expectMet(cs.Expect, r, waves)
	return cell
}

// expectMet scores a rollout outcome against the case's expectation.
// Every expectation requires a clean end state: zero residual drifts.
func expectMet(expect string, r *Result, waves []Wave) bool {
	if r.ResidualDrifts != 0 {
		return false
	}
	switch expect {
	case "complete":
		return r.Completed && r.Touched == r.Fleet
	case "rollback@canary":
		return r.RolledBack && r.TrippedWave == "canary" && r.Touched == 1
	case "rollback<=podset":
		// Caught no later than the podset wave, touching at most the
		// canary podset's devices.
		if !r.RolledBack {
			return false
		}
		cum := 0
		inLadder := false
		for _, w := range waves {
			cum += len(w.Devices)
			if w.Name == r.TrippedWave {
				inLadder = true
			}
			if w.Name == "podset" {
				break
			}
		}
		return inLadder && r.Touched <= cum
	default:
		return false
	}
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

func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}
