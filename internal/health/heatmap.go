package health

import (
	"fmt"

	"rocesim/internal/monitor"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
	"rocesim/internal/topology"
)

// Heatmap aggregates pingmesh probe results into a group×group grid —
// the pod×pod (or ToR×ToR) latency heatmap of the paper's Pingmesh
// paper lineage: each cell holds an RTT histogram plus probe and
// failure counts for the source→destination group pair. Report.AddHeatmap
// snapshots the grid and Report.Text draws it.
type Heatmap struct {
	n     int
	group func(*topology.Server) int
	label func(int) string

	cells [][]heatCell
}

type heatCell struct {
	rtt    *stats.Histogram
	probes uint64
	fails  uint64
}

// NewHeatmap builds an n×n heatmap; group maps a server to its cell
// index in [0, n), label names a group in report output (default "g%d").
func NewHeatmap(n int, group func(*topology.Server) int, label func(int) string) *Heatmap {
	if label == nil {
		label = func(i int) string { return fmt.Sprintf("g%d", i) }
	}
	h := &Heatmap{n: n, group: group, label: label, cells: make([][]heatCell, n)}
	for i := range h.cells {
		h.cells[i] = make([]heatCell, n)
	}
	return h
}

// Attach subscribes the heatmap to a pingmesh's probe results, chaining
// any observer already installed. Returns the heatmap.
func (h *Heatmap) Attach(pm *monitor.Pingmesh) *Heatmap {
	prev := pm.OnResult
	pm.OnResult = func(a, b *topology.Server, scope monitor.ProbeScope, rtt simtime.Duration, ok bool) {
		if prev != nil {
			prev(a, b, scope, rtt, ok)
		}
		h.Observe(a, b, rtt, ok)
	}
	return h
}

// Observe records one settled probe.
func (h *Heatmap) Observe(a, b *topology.Server, rtt simtime.Duration, ok bool) {
	i, j := h.group(a), h.group(b)
	if i < 0 || i >= h.n || j < 0 || j >= h.n {
		return
	}
	c := &h.cells[i][j]
	c.probes++
	if !ok {
		c.fails++
		return
	}
	if c.rtt == nil {
		c.rtt = stats.NewHistogram()
	}
	c.rtt.Observe(float64(rtt))
}

// CellP99 returns the cell's p99 RTT in picoseconds plus its probe and
// failure counts (p99 0 when the cell saw no successful probe).
func (h *Heatmap) CellP99(i, j int) (p99 float64, probes, fails uint64) {
	c := h.cells[i][j]
	if c.rtt != nil {
		p99 = c.rtt.Quantile(0.99)
	}
	return p99, c.probes, c.fails
}
