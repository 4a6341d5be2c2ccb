package experiments

import (
	"fmt"

	"rocesim/internal/core"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/topology"
	"rocesim/internal/workload"
)

// TransportMatrix is the three-way "does RDMA need a lossless fabric?"
// harness: every scenario runs once per transport stack —
//
//	pfc+dcqcn   the paper's deployment (lossless fabric, go-back-N),
//	irn-no-pfc  IRN selective repeat on a lossy fabric, BDP-bounded,
//	irn+ecn     IRN plus ECN-driven DCQCN rate control,
//
// and the per-cell counters make the trade concrete: the PFC stack pays
// in pause frames and their collateral (storms, propagation), the lossy
// stacks pay in drops and retransmissions. The scenarios deliberately
// include the paper's two marquee incidents (the NIC pause storm of
// §6.3 and pause propagation under a misconfigured buffer α) alongside
// the bread-and-butter congestion cases (incast, wire loss).

// TransportModes is the fixed evaluation order of the three stacks.
var TransportModes = []core.TransportMode{
	core.TransportPFCDCQCN,
	core.TransportIRNNoPFC,
	core.TransportIRNECN,
}

// TransportMatrixConfig shapes the run.
type TransportMatrixConfig struct {
	Seed int64
	// Quick restricts the matrix to the storm and incast scenarios (the
	// CI gate); the full matrix adds pause propagation and wire loss.
	Quick bool
}

// DefaultTransportMatrix returns the standard configuration.
func DefaultTransportMatrix(quick bool) TransportMatrixConfig {
	return TransportMatrixConfig{Seed: 61, Quick: quick}
}

// TransportCell is one (scenario, mode) outcome.
type TransportCell struct {
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`
	// GoodputGbps is the scenario's victim-traffic goodput.
	GoodputGbps float64 `json:"goodput_gbps"`
	// PauseTx counts PFC pause frames emitted fabric-wide. By
	// construction it must be zero for both IRN modes.
	PauseTx uint64 `json:"pause_tx"`
	// Drops is congestion and overflow loss (switch drops + NIC
	// receive-overflow drops); FCS corruption is counted separately.
	Drops     uint64 `json:"drops"`
	FCSErrors uint64 `json:"fcs_errors"`
	// Retx counts retransmitted request packets fabric-wide.
	Retx uint64 `json:"retx"`
	// Completed counts victim messages (or service operations)
	// finished over the whole run.
	Completed uint64 `json:"completed"`
	// Recovered reports that victim traffic made progress after the
	// scenario's disturbance ended — the flows were hurt, not killed.
	Recovered bool `json:"recovered"`
}

func (c TransportCell) row() string {
	return row(
		fmt.Sprintf("%-17s", c.Scenario),
		fmt.Sprintf("%-10s", c.Mode),
		fmt.Sprintf("goodput=%6.2fGb/s", c.GoodputGbps),
		fmt.Sprintf("pauseTx=%-6d", c.PauseTx),
		fmt.Sprintf("drops=%-6d", c.Drops),
		fmt.Sprintf("fcs=%-4d", c.FCSErrors),
		fmt.Sprintf("retx=%-6d", c.Retx),
		fmt.Sprintf("done=%-5d", c.Completed),
		fmt.Sprintf("recovered=%v", c.Recovered),
	)
}

// TransportMatrixResult is the full grid plus the per-scenario winners.
type TransportMatrixResult struct {
	Cfg       TransportMatrixConfig
	Scenarios []string        // run order
	Cells     []TransportCell // scenario-major, TransportModes order
}

// Winner returns the mode with the best goodput for a scenario (ties go
// to the earlier mode in TransportModes: the incumbent).
func (r TransportMatrixResult) Winner(scenario string) TransportCell {
	var best TransportCell
	found := false
	for _, c := range r.Cells {
		if c.Scenario != scenario {
			continue
		}
		if !found || c.GoodputGbps > best.GoodputGbps {
			best, found = c, true
		}
	}
	return best
}

// Table renders the grid and the winners summary deterministically.
func (r TransportMatrixResult) Table() string {
	out := "Transport matrix — lossless (PFC+DCQCN) vs lossy (IRN) fabrics\n"
	for _, c := range r.Cells {
		out += c.row()
	}
	out += "winners by goodput:\n"
	for _, s := range r.Scenarios {
		w := r.Winner(s)
		out += row(
			fmt.Sprintf("  %-17s", s),
			fmt.Sprintf("%-10s", w.Mode),
			fmt.Sprintf("%6.2fGb/s", w.GoodputGbps),
		)
	}
	return out
}

// Verdict names the cells that break the matrix's safety contract: an
// IRN cell that emitted a pause frame (the lossy fabric leaked PFC), or
// a cell whose victim traffic did not recover.
func (r TransportMatrixResult) Verdict() []string {
	var bad []string
	for _, c := range r.Cells {
		if c.Mode != core.TransportPFCDCQCN.String() && c.PauseTx != 0 {
			bad = append(bad, fmt.Sprintf("%s/%s: %d pause frames on a lossy fabric",
				c.Scenario, c.Mode, c.PauseTx))
		}
		if !c.Recovered {
			bad = append(bad, fmt.Sprintf("%s/%s: victim traffic did not recover",
				c.Scenario, c.Mode))
		}
	}
	return bad
}

// RunTransportMatrix executes every scenario under every transport mode.
func RunTransportMatrix(cfg TransportMatrixConfig) TransportMatrixResult {
	type scenario struct {
		name string
		run  func(mode core.TransportMode, seed int64) TransportCell
	}
	scenarios := []scenario{
		{"pfc-storm", runTransportStorm},
		{"incast", runTransportIncast},
	}
	if !cfg.Quick {
		scenarios = append(scenarios,
			scenario{"pause-propagation", runTransportPauseProp},
			scenario{"loss-recovery", runTransportLoss},
		)
	}
	r := TransportMatrixResult{Cfg: cfg}
	for _, s := range scenarios {
		r.Scenarios = append(r.Scenarios, s.name)
		for _, mode := range TransportModes {
			cell := s.run(mode, cfg.Seed)
			cell.Scenario = s.name
			cell.Mode = mode.String()
			r.Cells = append(r.Cells, cell)
		}
	}
	return r
}

// transportFabric builds a deployment of spec under the given mode with
// the production safety set.
func transportFabric(k *sim.Kernel, spec topology.Spec, mode core.TransportMode) *core.Deployment {
	dcfg := core.DefaultConfig(spec)
	dcfg.Transport = mode
	d, err := core.New(k, dcfg)
	if err != nil {
		panic(err)
	}
	return d
}

// fabricCounters fills the counter columns shared by every scenario.
func fabricCounters(k *sim.Kernel, cell *TransportCell) {
	snap := k.Metrics().Snapshot()
	cell.PauseTx = uint64(snap.SumSuffix("/pause_tx"))
	cell.Drops = uint64(snap.SumSuffix("/drops")) +
		uint64(snap.SumSuffix("/rx_overflow_drops"))
	cell.Retx = uint64(snap.SumSuffix("/qp_retx_packets"))
}

// runTransportStorm is the §6.3 NIC pause storm, scaled down: victim
// pairs stream across two ToRs while a rogue NIC on ToR 0 stops its
// receive pipeline mid-run. Under PFC the rogue floods pause frames and
// the watchdogs must contain the collateral; under IRN there are no
// pause frames to flood — the blast radius is the rogue itself.
func runTransportStorm(mode core.TransportMode, seed int64) TransportCell {
	k := sim.NewKernel(seed)
	spec := topology.Spec{
		Name: "storm", Podsets: 1, LeafsPerPod: 2, TorsPerPod: 2,
		ServersPerTor: 6, LinkRate: 40 * simtime.Gbps,
		ServerCableM: 2, LeafCableM: 20,
	}
	d := transportFabric(k, spec, mode)
	net := d.Net

	const pairs = 3
	const size = 1 << 20
	streams := make([]*workload.Streamer, pairs)
	for i := 0; i < pairs; i++ {
		qa, _ := d.Connect(net.Server(0, 0, i), net.Server(0, 1, i), core.ClassBulk)
		streams[i] = &workload.Streamer{QP: qa, Size: size}
		streams[i].Start(2)
	}
	rogue := net.Server(0, 0, 4)
	for i := 3; i < 5; i++ {
		qa, _ := d.Connect(net.Server(0, 1, i), rogue, core.ClassBulk)
		(&workload.Streamer{QP: qa, Size: size}).Start(2)
	}

	const total = 120 * simtime.Millisecond
	phase := total / 4
	k.RunUntil(simtime.Time(phase))
	rogue.NIC.SetMalfunction(true)
	k.RunUntil(simtime.Time(3 * phase))
	rogue.NIC.SetMalfunction(false)
	preRepair := make([]uint64, pairs)
	for i, st := range streams {
		preRepair[i] = st.Done
	}
	k.RunUntil(simtime.Time(total))

	var cell TransportCell
	recovered := true
	for i, st := range streams {
		cell.Completed += st.Done
		if st.Done == preRepair[i] {
			recovered = false // a victim made no progress after repair
		}
	}
	cell.Recovered = recovered
	cell.GoodputGbps = gbps(float64(cell.Completed)*size*8, total)
	fabricCounters(k, &cell)
	return cell
}

// runTransportIncast drives a synchronized 6-into-1 fan-in inside one
// rack — the canonical congestion case. PFC absorbs it by pausing
// senders; IRN absorbs it by dropping and selectively repairing, with
// ECN deciding whether senders also slow down.
func runTransportIncast(mode core.TransportMode, seed int64) TransportCell {
	k := sim.NewKernel(seed + 1)
	spec := topology.RackSpec(8)
	d := transportFabric(k, spec, mode)
	net := d.Net

	const senders = 6
	const size = 256 << 10
	sink := net.Server(0, 0, 7)
	streams := make([]*workload.Streamer, senders)
	for i := 0; i < senders; i++ {
		qa, _ := d.Connect(net.Server(0, 0, i), sink, core.ClassBulk)
		streams[i] = &workload.Streamer{QP: qa, Size: size}
		streams[i].Start(2)
	}
	const total = 80 * simtime.Millisecond
	k.RunUntil(simtime.Time(total))

	var cell TransportCell
	cell.Recovered = true
	for _, st := range streams {
		cell.Completed += st.Done
		if st.Done == 0 {
			cell.Recovered = false // a sender was starved outright
		}
	}
	cell.GoodputGbps = gbps(float64(cell.Completed)*size*8, total)
	fabricCounters(k, &cell)
	return cell
}

// runTransportPauseProp is the §6.2 pause-propagation incident: a
// fan-out/fan-in service under a misconfigured buffer α (1/64). Under
// PFC the under-sized thresholds flood the podset with pause frames and
// an innocent victim service suffers; without PFC there is nothing to
// propagate.
func runTransportPauseProp(mode core.TransportMode, seed int64) TransportCell {
	k := sim.NewKernel(seed + 2)
	spec := topology.Spec{
		Name: "pauseprop", Podsets: 1, LeafsPerPod: 2, TorsPerPod: 2,
		ServersPerTor: 10, LinkRate: 40 * simtime.Gbps,
		ServerCableM: 2, LeafCableM: 20,
	}
	dcfg := core.DefaultConfig(spec)
	dcfg.Transport = mode
	dcfg.Alpha = 1.0 / 64
	d, err := core.New(k, dcfg)
	if err != nil {
		panic(err)
	}
	net := d.Net

	const backends = 8
	const respSize = 128 << 10
	client := net.Server(0, 0, 0)
	var chans []workload.PingPong
	for b := 0; b < backends; b++ {
		qc, qs := d.Connect(client, net.Server(0, 1, b), core.ClassBulk)
		chans = append(chans, workload.NewRDMAPingPong(qc, qs, k.Now))
	}
	svc := workload.NewService(k, "chatty", workload.ServiceConfig{
		QuerySize: 512, ResponseSize: respSize, Fanout: backends,
		Interval: 2 * simtime.Millisecond,
	}, chans)
	svc.Start()

	// The victim shares ToR 0 with the chatty client.
	qc, qs := d.Connect(net.Server(0, 0, 1), net.Server(0, 1, backends), core.ClassBulk)
	victim := workload.NewService(k, "victim", workload.ServiceConfig{
		QuerySize: 512, ResponseSize: 8 << 10, Fanout: 1, Interval: simtime.Millisecond,
	}, []workload.PingPong{workload.NewRDMAPingPong(qc, qs, k.Now)})
	victim.Start()

	const total = 120 * simtime.Millisecond
	k.RunUntil(simtime.Time(total))

	var cell TransportCell
	cell.Completed = svc.Ops + victim.Ops
	cell.Recovered = victim.Ops > 0
	cell.GoodputGbps = gbps(float64(svc.Ops)*backends*respSize*8, total)
	fabricCounters(k, &cell)
	return cell
}

// runTransportLoss streams through a cable with a 1% FCS error rate —
// the paper's "packet losses can still happen for various other
// reasons". Go-back-N re-walks the window per drop; IRN repairs exactly
// the corrupted packets.
func runTransportLoss(mode core.TransportMode, seed int64) TransportCell {
	k := sim.NewKernel(seed + 3)
	spec := topology.RackSpec(4)
	d := transportFabric(k, spec, mode)
	net := d.Net

	// Corrupt the receiver's cable so data packets (not ACKs) get hit.
	net.Links[1].L.FCSErrorRate = 0.01

	const size = 512 << 10
	qa, _ := d.Connect(net.Server(0, 0, 0), net.Server(0, 0, 1), core.ClassBulk)
	st := &workload.Streamer{QP: qa, Size: size}
	st.Start(2)
	const total = 80 * simtime.Millisecond
	k.RunUntil(simtime.Time(total))

	var cell TransportCell
	cell.Completed = st.Done
	cell.Recovered = st.Done > 0
	cell.GoodputGbps = gbps(float64(st.Done)*size*8, total)
	cell.FCSErrors = net.Links[1].L.FCSErrors
	fabricCounters(k, &cell)
	return cell
}
