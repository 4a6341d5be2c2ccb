package main

import (
	"fmt"

	"rocesim/internal/core"
	"rocesim/internal/monitor"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
	"rocesim/internal/telemetry"
	"rocesim/internal/topology"
	"rocesim/internal/transport"
	"rocesim/internal/workload"
)

// params sizes one workload. A workload's full params are what the
// benchmark measures; its toy params run the same code paths in a
// fraction of a second for the smoke test.
type params struct {
	podsets, tors, servers int // fabric shape: podsets (fleet) × ToRs per podset × servers per ToR
	qps                    int // clos: QPs per server pair per direction
	msgBytes               int // streamer message size
	pairs                  int // fleet: sampled Pingmesh probe pairs
	simTime                simtime.Duration
}

// bench describes one workload: a fabric, the traffic started on it and
// how long it is simulated. Every generator is closed-loop in simulated
// time except the rack RPC, which is open-loop at a fixed simulated
// rate; either way the load is generated inside the simulation, so the
// host can never fall behind a schedule.
type bench struct {
	name      string
	why       string
	seed      int64
	shards    int
	full, toy params
	mode      core.TransportMode
	spec      func(p params) topology.Spec
	start     func(d *core.Deployment, p params) *traffic
}

// rpcEvery is the rack workloads' open-loop RPC period (simulated).
const rpcEvery = 20 * simtime.Microsecond

var benches = []*bench{
	{
		name:   "clos-bulk",
		why:    "Fig 7 at 1152 servers under PFC+DCQCN on 2 shards: deep heap, 5-hop ECMP, MMU, shard barrier",
		seed:   41,
		shards: 2,
		full:   params{tors: 24, servers: 24, qps: 2, msgBytes: 1 << 20, simTime: 1 * simtime.Millisecond},
		toy:    params{tors: 2, servers: 4, qps: 2, msgBytes: 32 << 10, simTime: 200 * simtime.Microsecond},
		mode:   core.TransportPFCDCQCN,
		spec:   closSpec,
		start:  startClos,
	},
	{
		name:  "rack-incast-pfc",
		why:   "23-to-1 incast plus RPC on the Fig 8 testbed under PFC+DCQCN: small heap, dispatch-bound, pause and DCQCN paths",
		seed:  5,
		full:  params{msgBytes: 1 << 20, simTime: 50 * simtime.Millisecond},
		toy:   params{msgBytes: 64 << 10, simTime: 2 * simtime.Millisecond},
		mode:  core.TransportPFCDCQCN,
		spec:  rackSpec,
		start: startIncast,
	},
	{
		name:  "rack-incast-irn",
		why:   "the same incast on a lossy fabric with IRN and a 0.2% FCS error rate at the sink: no pauses, selective repeat",
		seed:  5,
		full:  params{msgBytes: 1 << 20, simTime: 50 * simtime.Millisecond},
		toy:   params{msgBytes: 64 << 10, simTime: 2 * simtime.Millisecond},
		mode:  core.TransportIRNNoPFC,
		spec:  rackSpec,
		start: startIncast,
	},
	{
		name:  "fleet-pingmesh",
		why:   "20,160-server fleet probed by 2000 Pingmesh pairs: route-table build, registry snapshots and GC at fleet scale",
		seed:  7,
		full:  params{podsets: 35, tors: 24, servers: 24, pairs: 2000, simTime: 50 * simtime.Millisecond},
		toy:   params{podsets: 2, tors: 24, servers: 24, pairs: 200, simTime: 20 * simtime.Millisecond},
		mode:  core.TransportPFCDCQCN,
		spec:  fleetSpec,
		start: startMesh,
	},
}

func benchByName(name string) (*bench, error) {
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// closSpec is the Fig 7 fabric with spines scaled to the ToR count as
// experiments.RunFig7 scales them (24 ToRs per podset ↔ 64 spines).
func closSpec(p params) topology.Spec {
	spec := topology.Fig7Spec(p.servers)
	spec.TorsPerPod = p.tors
	spec.Spines = p.tors * 64 / 24
	spec.Spines -= spec.Spines % spec.LeafsPerPod
	if spec.Spines < spec.LeafsPerPod {
		spec.Spines = spec.LeafsPerPod
	}
	return spec
}

func rackSpec(params) topology.Spec { return topology.Fig8Spec() }

// fleetSpec replicates the Fig 7 podset out to fleet width, as
// experiments.RunPingmeshSweep does.
func fleetSpec(p params) topology.Spec {
	spec := topology.Fig7Spec(p.servers)
	spec.Name = fmt.Sprintf("fleet-%dx%dx%d", p.podsets, p.tors, p.servers)
	spec.Podsets = p.podsets
	spec.TorsPerPod = p.tors
	return spec
}

// traffic is what a workload started; fold reads its results.
type traffic struct {
	streams []*workload.Streamer
	sinks   []*transport.QP // receiving end of each stream
	rpc     *rpcProbe
	mesh    *monitor.Pingmesh
	pairs   int
}

// stream starts back-to-back messages, two outstanding, on a new QP
// from a to b.
func (t *traffic) stream(d *core.Deployment, a, b *topology.Server, size int) {
	qa, qb := d.Connect(a, b, core.ClassBulk)
	st := &workload.Streamer{QP: qa, Size: size}
	st.Start(2)
	t.streams = append(t.streams, st)
	t.sinks = append(t.sinks, qb)
}

// startClos pairs server s of ToR t in podset 0 with the same position
// in podset 1, so every flow crosses the spine layer.
func startClos(d *core.Deployment, p params) *traffic {
	t := &traffic{}
	for tor := 0; tor < p.tors; tor++ {
		for s := 0; s < p.servers; s++ {
			a, b := d.Net.Server(0, tor, s), d.Net.Server(1, tor, s)
			for q := 0; q < p.qps; q++ {
				t.stream(d, a, b, p.msgBytes)
				t.stream(d, b, a, p.msgBytes)
			}
		}
	}
	return t
}

// startIncast streams from every server but the last on ToR 1 into
// server 0 of ToR 0, and runs the RPC between the last servers of the
// two ToRs on the real-time class. Under IRN the sink's cable corrupts
// frames, so loss recovery has work to do.
func startIncast(d *core.Deployment, p params) *traffic {
	t := &traffic{}
	sink := d.Net.Server(0, 0, 0)
	last := d.Net.Spec.ServersPerTor - 1
	for s := 0; s < last; s++ {
		t.stream(d, d.Net.Server(0, 1, s), sink, p.msgBytes)
	}
	client, server := d.Net.Server(0, 1, last), d.Net.Server(0, 0, last)
	qc, qs := d.Connect(client, server, core.ClassRealTime)
	t.rpc = startRPC(client.NIC.Kernel(), qc, qs)
	if d.Cfg.Transport.IRN() {
		for _, rec := range d.Net.Links {
			if rec.B == sink.NIC.Name() {
				rec.L.FCSErrorRate = 0.002
			}
		}
	}
	return t
}

// startMesh samples probe pairs from the seed-derived stream the fleet
// Pingmesh sweep uses, so the sample depends only on the seed.
func startMesh(d *core.Deployment, p params) *traffic {
	pm := monitor.NewPingmesh(d.K, monitor.DefaultPingmesh())
	rng := d.K.Rand("pingmesh/sweep")
	n := len(d.Net.Servers)
	seen := make(map[[2]int]bool, p.pairs)
	for len(seen) < p.pairs {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		pm.AddPair(d.Net, d.Net.Servers[a], d.Net.Servers[b])
	}
	pm.Start()
	return &traffic{mesh: pm, pairs: p.pairs}
}

// rpcProbe issues a 512 B query with a 2 KiB response every rpcEvery,
// whether or not earlier queries have been answered.
type rpcProbe struct {
	issued, done uint64
	lat          *stats.Histogram // picoseconds
}

func startRPC(k *sim.Kernel, qc, qs *transport.QP) *rpcProbe {
	r := &rpcProbe{lat: stats.NewHistogram()}
	pp := workload.NewRDMAPingPong(qc, qs, k.Now)
	k.NewTicker(rpcEvery, func() {
		r.issued++
		pp.Query(512, 2048, func(rtt simtime.Duration) {
			r.done++
			r.lat.Observe(float64(rtt))
		})
	})
	return r
}

// results are what the generators report once the run is over.
type results struct {
	messages, leastDelivered uint64
	rpcIssued, rpcDone       uint64
	rpcP99US                 float64
	probes, answered, failed uint64
}

// fold collects the generators' results. It runs after RunUntil
// returns, at a barrier, so the Pingmesh may fold its per-shard RTTs.
func (t *traffic) fold() results {
	var r results
	for _, st := range t.streams {
		r.messages += st.Done
	}
	for i, q := range t.sinks {
		if i == 0 || q.S.BytesDelivered < r.leastDelivered {
			r.leastDelivered = q.S.BytesDelivered
		}
	}
	if t.rpc != nil {
		r.rpcIssued, r.rpcDone = t.rpc.issued, t.rpc.done
		r.rpcP99US = t.rpc.lat.Quantile(0.99) / 1e6
	}
	if pm := t.mesh; pm != nil {
		pm.Fold()
		r.probes = pm.Probes
		for _, h := range pm.RTT {
			r.answered += h.Count()
		}
		for _, f := range pm.Failures {
			r.failed += f
		}
	}
	return r
}

// check is one correctness condition evaluated at the end of an episode.
type check struct {
	Name string  `json:"name"`
	OK   bool    `json:"ok"`
	Got  float64 `json:"got"`
}

// checks evaluates the workload's correctness conditions from its
// generator results and layer counts.
func (t *traffic) checks(irn bool, r results, counts map[string]float64) []check {
	var out []check
	add := func(name string, ok bool, got float64) {
		out = append(out, check{Name: name, OK: ok, Got: got})
	}
	if irn {
		add("pfc.pause_tx == 0", counts["pfc.pause_tx"] == 0, counts["pfc.pause_tx"])
		add("transport.retx_packets > 0", counts["transport.retx_packets"] > 0, counts["transport.retx_packets"])
	} else {
		add("buffer.lossless_drops == 0", counts["buffer.lossless_drops"] == 0, counts["buffer.lossless_drops"])
	}
	if len(t.sinks) > 0 {
		// Clos flows get ~0.75 Gb/s each, so a 1 MiB message outlasts the
		// episode; delivered bytes show that no flow starved at either scale.
		add("every stream delivered data", r.leastDelivered > 0, float64(r.leastDelivered))
	}
	if t.rpc != nil {
		ratio := 0.0
		if r.rpcIssued > 0 {
			ratio = float64(r.rpcDone) / float64(r.rpcIssued)
		}
		add("rpc completed >= 90% of issued", ratio >= 0.9, ratio)
	}
	if t.mesh != nil {
		add("monitor.probe_failures == 0", r.failed == 0, float64(r.failed))
		// At most one probe per pair can still be in flight at the end.
		add("probes answered >= probes - pairs", r.answered+uint64(t.pairs) >= r.probes, float64(r.answered))
	}
	return out
}

// layerCounts reads the deterministic per-layer counts of an episode
// from the generator results, the registry snapshot, the cable records
// and the kernel.
func layerCounts(d *core.Deployment, snap *telemetry.Snapshot, r results) map[string]float64 {
	c := map[string]float64{
		"workload.messages":      float64(r.messages),
		"workload.rpc_ops":       float64(r.rpcDone),
		"workload.rpc_p99_us":    r.rpcP99US,
		"monitor.probes":         float64(r.probes),
		"monitor.probe_failures": float64(r.failed),
	}
	sumSwitches := func(suffix string) float64 {
		t := 0.0
		for _, sw := range d.Net.Switches() {
			t += snap.Value(sw.Name() + suffix)
		}
		return t
	}
	sumNICs := func(suffix string) float64 {
		t := 0.0
		for _, s := range d.Net.Servers {
			t += snap.Value(s.NIC.Name() + suffix)
		}
		return t
	}

	k := d.K
	events := float64(k.EventsFired())
	c["sim.events"] = events
	c["sim.queue_pending"] = float64(k.Pending())
	c["sim.shard_imbalance"] = 1
	c["sim.global_events"] = 0
	if g := k.Group(); g != nil {
		var sum, most uint64
		for i := 0; i < g.N(); i++ {
			s := g.Shard(i)
			n := s.EventsFired()
			sum += n
			if n > most {
				most = n
			}
			c["sim.queue_pending"] += float64(s.Pending())
		}
		if sum > 0 {
			c["sim.shard_imbalance"] = float64(most) * float64(g.N()) / float64(sum)
		}
		c["sim.global_events"] = events - float64(sum)
	}

	var frames, fcs uint64
	for _, rec := range d.Net.Links {
		frames += rec.L.Delivered[0] + rec.L.Delivered[1]
		fcs += rec.L.FCSErrorCount()
	}
	c["link.frames"] = float64(frames)
	c["link.fcs_errors"] = float64(fcs)

	c["fabric.rx_frames"] = sumSwitches("/rx_frames")
	c["fabric.ecn_marked"] = sumSwitches("/ecn_marked")
	c["fabric.drops"] = sumSwitches("/drops")
	c["buffer.lossless_drops"] = sumSwitches("/lossless_drops")
	c["pfc.pause_tx"] = snap.SumSuffix("/pause_tx")
	c["pfc.pause_rx"] = snap.SumSuffix("/pause_rx")
	c["dcqcn.rate_cuts"] = snap.SumSuffix("/dcqcn_rate_cuts")
	c["dcqcn.cnps_generated"] = snap.SumSuffix("/dcqcn_cnps_generated")
	c["nic.rx_frames"] = sumNICs("/rx_frames")
	c["nic.rx_overflow_drops"] = sumNICs("/rx_overflow_drops")
	c["nic.mtt_misses"] = sumNICs("/mtt_misses")

	tx := sumNICs("/qp_tx_packets")
	retx := sumNICs("/qp_retx_packets")
	c["transport.tx_packets"] = tx
	c["transport.retx_packets"] = retx
	c["transport.naks_tx"] = sumNICs("/naks_tx")
	c["transport.timeouts"] = sumNICs("/qp_timeouts")
	c["transport.useful_ratio"] = 1
	if tx > 0 {
		c["transport.useful_ratio"] = 1 - retx/tx
	}
	return c
}
