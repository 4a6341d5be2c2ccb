package tenant

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"rocesim/internal/core"
	"rocesim/internal/invariant"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
	"rocesim/internal/topology"
	"rocesim/internal/transport"
	"rocesim/internal/workload"
)

// The matrix fabric: one 12-server rack. The GPU tenant runs a ring
// all-reduce on servers 0–3 and a tree all-reduce on servers 4–7; the
// storage tenant writes from clients on servers 8–11 to a replica set
// co-located on ring members 1–3 (the checkpoint pattern: compute hosts
// also serve rack-local storage). Co-location is the point — storage
// bursts and ring chunks converge on the same ToR egress ports, and
// only the per-priority queues and per-PG buffer policy keep the
// barrier-synchronized collective out from behind megabyte-scale write
// bursts.
const (
	rackServers = 12
	ringWorkers = 4
	treeWorkers = 4

	// cellEnd bounds each cell; misconfigAt is when the mixed-misconfig
	// cell's fat-finger lands — one picosecond off the millisecond grid
	// so the control action never ties with data events (DESIGN.md §13).
	cellEnd     = simtime.Time(60 * simtime.Millisecond)
	misconfigAt = simtime.Duration(20*simtime.Millisecond) + 1
)

// IsolationLimit bounds the latency tenant: the GPU collective is
// isolated when its p99 slowdown under mixed load stays within this
// factor of its solo p99. GoodputFloor bounds the bulk tenant: storage
// is isolated when the mixed cell retains at least this fraction of its
// solo goodput (a bulk tenant's contract is throughput, not tail
// latency — its own fan-out bursts self-queue even solo).
const (
	IsolationLimit = 2.0
	GoodputFloor   = 0.5
)

// TenantScore is one tenant's performance inside one cell.
type TenantScore struct {
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	// Rounds counts completed collective rounds (GPU) or write
	// operations (storage).
	Rounds uint64 `json:"rounds"`
	// SlowP50/SlowP99 are quantiles of per-round (per-op) slowdown:
	// elapsed time over the critical path's ideal serialization time at
	// line rate. Dimensionless and ≥ 1, so ring rounds, tree rounds and
	// replication ops land on one comparable scale — congestion shows up
	// as tail slowdown no matter which job absorbs it.
	SlowP50 float64 `json:"slowdown_p50"`
	SlowP99 float64 `json:"slowdown_p99"`
	// GoodputGbps is wire bytes moved by completed rounds/ops over the
	// cell duration.
	GoodputGbps float64 `json:"goodput_gbps"`
}

// Cell is one matrix cell's score.
type Cell struct {
	Cell    string        `json:"cell"`
	Tenants []TenantScore `json:"tenants"`
	// Drifts is the config-drift count at cell end; Safeguards names the
	// safeguards that fired.
	Drifts     int      `json:"drifts"`
	Safeguards []string `json:"safeguards,omitempty"`
	// Violations counts invariant-auditor findings (lossless drops
	// surface here when a misconfiguration breaks the no-drop
	// guarantee).
	Violations int `json:"violations"`
}

// tenantScore finds a tenant's score in the cell (nil when absent).
func (c Cell) tenantScore(name string) *TenantScore {
	for i := range c.Tenants {
		if c.Tenants[i].Tenant == name {
			return &c.Tenants[i]
		}
	}
	return nil
}

// IsolationRow compares one tenant across cells: solo versus mixed (the
// victim-flow isolation metric) and versus the shared-PG misconfig.
// Each tenant is judged by the criterion its class contract names —
// tail slowdown for the latency tenant, goodput retention for the bulk
// tenant — but both measurements are reported for both.
type IsolationRow struct {
	Tenant string `json:"tenant"`
	// Criterion is "p99-slowdown" (Isolated ⇔ Ratio ≤ IsolationLimit)
	// or "goodput" (Isolated ⇔ Retention ≥ GoodputFloor).
	Criterion string  `json:"criterion"`
	SoloP99   float64 `json:"solo_p99"`
	MixedP99  float64 `json:"mixed_p99"`
	// Ratio is mixed/solo p99 slowdown.
	Ratio     float64 `json:"ratio"`
	SoloGbps  float64 `json:"solo_gbps"`
	MixedGbps float64 `json:"mixed_gbps"`
	// Retention is mixed/solo goodput.
	Retention float64 `json:"retention"`
	Isolated  bool    `json:"isolated"`
	// MisconfigP99/MisconfigRatio score the same tenant after the ToR
	// fat-finger folds the GPU class into the storage PG (0 when the
	// tenant is absent from that cell).
	MisconfigP99   float64 `json:"misconfig_p99,omitempty"`
	MisconfigRatio float64 `json:"misconfig_ratio,omitempty"`
}

// Scorecard is the full matrix result.
type Scorecard struct {
	Seed      int64          `json:"seed"`
	Cells     []Cell         `json:"cells"`
	Isolation []IsolationRow `json:"isolation"`
}

// Failed reports whether the matrix missed its contract: every tenant
// isolated under the configured mixed cell by its own criterion; the
// fat-finger demonstrably breaking the GPU tenant (misconfig p99
// slowdown beyond IsolationLimit × solo — the same bound the configured
// mix must stay inside); and the misconfig cell caught by a named
// safeguard.
func (sc *Scorecard) Failed() bool {
	for _, r := range sc.Isolation {
		if !r.Isolated {
			return true
		}
		if r.Tenant == "gpu" && r.MisconfigRatio > 0 && r.MisconfigRatio <= IsolationLimit {
			return true
		}
	}
	for _, c := range sc.Cells {
		if c.Cell == "mixed-misconfig" && (c.Drifts == 0 || len(c.Safeguards) == 0) {
			return true
		}
	}
	return false
}

// JSON renders the scorecard.
func (sc *Scorecard) JSON() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// Text renders a human-readable table.
func (sc *Scorecard) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenant matrix (seed %d)\n", sc.Seed)
	fmt.Fprintf(&b, "%-18s %-9s %4s %7s %10s %10s %10s %7s %6s\n",
		"cell", "tenant", "pri", "rounds", "slow-p50", "slow-p99", "gbps", "drifts", "viol")
	for _, c := range sc.Cells {
		for i, t := range c.Tenants {
			cell, drifts, viol := "", "", ""
			if i == 0 {
				cell = c.Cell
				drifts = fmt.Sprintf("%d", c.Drifts)
				viol = fmt.Sprintf("%d", c.Violations)
			}
			fmt.Fprintf(&b, "%-18s %-9s %4d %7d %10.3f %10.3f %10.3f %7s %6s\n",
				cell, t.Tenant, t.Priority, t.Rounds, t.SlowP50, t.SlowP99, t.GoodputGbps, drifts, viol)
		}
	}
	fmt.Fprintf(&b, "\nisolation (latency tenants: p99 slowdown ≤ %.1fx solo; bulk tenants: goodput ≥ %.0f%% solo)\n",
		IsolationLimit, GoodputFloor*100)
	for _, r := range sc.Isolation {
		status := "isolated"
		if !r.Isolated {
			status = "VIOLATED"
		}
		switch r.Criterion {
		case "goodput":
			fmt.Fprintf(&b, "  %-9s solo %.1f Gb/s  mixed %.1f Gb/s  retention %.0f%%  [%s]",
				r.Tenant, r.SoloGbps, r.MixedGbps, r.Retention*100, status)
		default:
			fmt.Fprintf(&b, "  %-9s solo p99 %.2fx  mixed p99 %.2fx  ratio %.2fx  [%s]",
				r.Tenant, r.SoloP99, r.MixedP99, r.Ratio, status)
		}
		if r.MisconfigP99 > 0 {
			fmt.Fprintf(&b, "  misconfig p99 %.2fx (%.2fx solo)", r.MisconfigP99, r.MisconfigRatio)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Run executes the four-cell matrix — each tenant solo, the configured
// mix, and the mix under a mid-run shared-PG fat-finger — each cell in
// its own sharded kernel seeded from the campaign seed and cell name.
func Run(seed int64, shards int) *Scorecard {
	sc := &Scorecard{Seed: seed}
	cells := []struct {
		name         string
		gpu, storage bool
		misconfig    bool
	}{
		{"gpu-solo", true, false, false},
		{"storage-solo", false, true, false},
		{"mixed", true, true, false},
		{"mixed-misconfig", true, true, true},
	}
	for _, c := range cells {
		sc.Cells = append(sc.Cells, runCell(c.name, seed, shards, c.gpu, c.storage, c.misconfig))
	}
	sc.Isolation = isolation(sc.Cells)
	return sc
}

// isolation builds the mixed-vs-solo comparison rows.
func isolation(cells []Cell) []IsolationRow {
	find := func(cell string) *Cell {
		for i := range cells {
			if cells[i].Cell == cell {
				return &cells[i]
			}
		}
		return nil
	}
	mixed, mis := find("mixed"), find("mixed-misconfig")
	var rows []IsolationRow
	for _, tn := range []struct{ name, solo, criterion string }{
		{"gpu", "gpu-solo", "p99-slowdown"},
		{"storage", "storage-solo", "goodput"},
	} {
		solo := find(tn.solo)
		if solo == nil || mixed == nil {
			continue
		}
		s, m := solo.tenantScore(tn.name), mixed.tenantScore(tn.name)
		if s == nil || m == nil || s.SlowP99 == 0 || s.GoodputGbps == 0 {
			continue
		}
		row := IsolationRow{
			Tenant: tn.name, Criterion: tn.criterion,
			SoloP99: s.SlowP99, MixedP99: m.SlowP99,
			Ratio:    round3(m.SlowP99 / s.SlowP99),
			SoloGbps: s.GoodputGbps, MixedGbps: m.GoodputGbps,
			Retention: round3(m.GoodputGbps / s.GoodputGbps),
		}
		switch tn.criterion {
		case "goodput":
			row.Isolated = row.Retention >= GoodputFloor
		default:
			row.Isolated = row.Ratio <= IsolationLimit
		}
		if mis != nil {
			if x := mis.tenantScore(tn.name); x != nil {
				row.MisconfigP99 = x.SlowP99
				row.MisconfigRatio = round3(x.SlowP99 / s.SlowP99)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// runCell builds the rack, starts the requested tenants' workloads,
// optionally lands the shared-PG fat-finger mid-run, and scores the
// cell at cellEnd.
func runCell(name string, seed int64, shards int, gpu, storage, misconfig bool) Cell {
	c, _ := runCellK(name, seed, shards, gpu, storage, misconfig)
	return c
}

// runCellK is runCell plus the cell's kernel, so tests can inspect the
// final telemetry.
func runCellK(name string, seed int64, shards int, gpu, storage, misconfig bool) (Cell, *sim.Kernel) {
	if shards < 1 {
		shards = 1
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	k := sim.NewRoot(seed^int64(h.Sum64()), shards)
	aud := invariant.Attach(k, invariant.Options{})
	plan := DefaultPlan()

	spec := topology.RackSpec(rackServers)
	cfg := core.DefaultConfig(spec)
	cfg.SwitchTweak = plan.SwitchTweak
	cfg.NICTweak = plan.NICTweak
	d, err := core.New(k, cfg)
	if err != nil {
		panic(err)
	}
	net := d.Net

	// slow converts an elapsed round/op time into a slowdown: elapsed
	// over the critical path's ideal serialization time at line rate.
	slow := func(criticalBytes int, elapsed simtime.Duration) float64 {
		ideal := spec.LinkRate.Transmission(criticalBytes)
		if ideal < 1 {
			ideal = 1
		}
		return float64(elapsed) / float64(ideal)
	}

	gpuPri := plan.Class("gpu").Priority
	stPri := plan.Class("storage").Priority
	gpuFCT := stats.NewHistogram()
	stFCT := stats.NewHistogram()
	var gpuRounds, stOps uint64
	var gpuBytes, stBytes uint64

	// Collective flow sizes: the gradient bucket mix scaled to
	// rack-sized round times (a full-size bucket per round would leave
	// single-digit rounds in a 60 ms cell).
	buckets := workload.SizeBuckets{
		Sizes:   []int{256 << 10, 512 << 10, 1 << 20},
		Weights: []int{1, 2, 5},
	}

	srv := func(i int) *topology.Server { return net.Server(0, 0, i) }
	// Workload drivers run on their servers' shard kernel, not the global
	// control kernel: completion callbacks fire inside shard windows,
	// where only the owning shard's clock and heap are coherent. In a
	// one-ToR rack every server shares one shard, so the drivers'
	// cross-server barriers (ring steps, tree phases, write fan-outs)
	// stay single-threaded at any shard count.
	srvK := func(i int) *sim.Kernel { return srv(i).NIC.Kernel() }

	if gpu {
		// Ring job on servers 0–3: ring[i] is worker i's requester toward
		// worker (i+1) mod N.
		ring := make([]*transport.QP, ringWorkers)
		for i := 0; i < ringWorkers; i++ {
			qa, _ := d.Connect(srv(i), srv((i+1)%ringWorkers), gpuPri)
			ring[i] = qa
		}
		rj := workload.NewRingAllReduce(srvK(0), "job0", ring)
		rj.Buckets = buckets
		rj.OnRound = func(_, bucket int, elapsed simtime.Duration) {
			gpuRounds++
			chunk := bucket / ringWorkers
			if chunk < 1 {
				chunk = 1
			}
			// Ring critical path: each worker link serializes one chunk
			// per step for 2(N−1) steps.
			gpuFCT.Observe(slow(2*(ringWorkers-1)*chunk, elapsed))
			// Ring wire bytes: 2(N−1) steps, N chunk-sized sends each.
			gpuBytes += uint64(2 * (ringWorkers - 1) * ringWorkers * chunk)
		}
		rj.Start()

		// Tree job on servers 4–7: worker w rides server 4+w, worker 0 is
		// the root, worker i's parent is (i−1)/2.
		up := make([]*transport.QP, treeWorkers)
		down := make([]*transport.QP, treeWorkers)
		for i := 1; i < treeWorkers; i++ {
			parent := (i - 1) / 2
			qa, qb := d.Connect(srv(4+parent), srv(4+i), gpuPri)
			down[i], up[i] = qa, qb
		}
		tj := workload.NewTreeAllReduce(srvK(4), "job1", up, down)
		tj.Buckets = buckets
		tj.OnRound = func(_, bucket int, elapsed simtime.Duration) {
			gpuRounds++
			// Tree critical path for the 4-worker binary tree: the four
			// phases serialize 1, 2, 2 and 1 full buckets on their busiest
			// link (the root's port carries both depth-1 edges).
			gpuFCT.Observe(slow(6*bucket, elapsed))
			// Tree wire bytes: every non-root edge carries the bucket up
			// and back down.
			gpuBytes += uint64(2 * (treeWorkers - 1) * bucket)
		}
		tj.Start()
	}

	if storage {
		// Write clients on servers 8–11, all replicating to the shared
		// set on ring members 1–3: every operation is a 3 MiB burst (a
		// 1 MiB object fanned out 3 ways) converging on the same ToR
		// egress ports the ring's chunks must cross. ~22 Gb/s offered per
		// replica port on average, bursty under exponential arrivals.
		rcfg := workload.ReplicationConfig{
			ObjectBytes: 2 << 20,
			Interval:    2400 * simtime.Microsecond,
			RepairEvery: 8,
		}
		for c := 8; c <= 11; c++ {
			writes := make([]*transport.QP, 0, 3)
			for r := 1; r <= 3; r++ {
				qa, _ := d.Connect(srv(c), srv(r), stPri)
				writes = append(writes, qa)
			}
			rep := workload.NewReplication(srvK(c), fmt.Sprintf("client%d", c), rcfg, writes)
			rep.OnOp = func(_ int, bytes int, elapsed simtime.Duration) {
				stOps++
				// Storage critical path: three object copies serialized
				// out the client's uplink.
				stFCT.Observe(slow(3*bytes, elapsed))
				stBytes += uint64(3 * bytes)
			}
			rep.Start()
		}
	}

	if misconfig {
		// The fat-finger: mid-run, the ToR's QoS map is reprogrammed to
		// fold the GPU class into the storage PG — two tenants suddenly
		// sharing one priority group's egress FIFO, ECN profile and
		// buffer accounting. The ring's chunks now queue behind megabyte
		// write bursts under storage's deep conservative marking ramp,
		// and the collective loses its own DWRR turn at the contended
		// ports. The config store's desired map still says "identity", so
		// the drift check names the safeguard that catches this.
		k.After(misconfigAt, func() {
			m := new([8]int)
			for i := range m {
				m[i] = i
			}
			m[gpuPri] = stPri
			net.Tor(0, 0).SetQoSMap(m)
		})
	}

	k.RunUntil(cellEnd)
	aud.Finish()

	cell := Cell{Cell: name}
	secs := cellEnd.Sub(0).Seconds()
	if gpu {
		cell.Tenants = append(cell.Tenants, TenantScore{
			Tenant: "gpu", Priority: gpuPri, Rounds: gpuRounds,
			SlowP50:     round3(gpuFCT.Quantile(0.50)),
			SlowP99:     round3(gpuFCT.Quantile(0.99)),
			GoodputGbps: round3(float64(gpuBytes) * 8 / secs / 1e9),
		})
	}
	if storage {
		cell.Tenants = append(cell.Tenants, TenantScore{
			Tenant: "storage", Priority: stPri, Rounds: stOps,
			SlowP50:     round3(stFCT.Quantile(0.50)),
			SlowP99:     round3(stFCT.Quantile(0.99)),
			GoodputGbps: round3(float64(stBytes) * 8 / secs / 1e9),
		})
	}
	cell.Drifts = len(d.CheckDrift())
	if cell.Drifts > 0 {
		cell.Safeguards = append(cell.Safeguards, "config-drift")
	}
	cell.Violations = int(aud.Total())
	return cell, k
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
