package health

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"rocesim/internal/simtime"
	"rocesim/internal/stats"
)

// round3 quantizes report floats to 3 decimals so reports stay stable
// under float-formatting differences.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// ns converts a picosecond simulated timestamp to nanoseconds, the unit
// health reports publish (campaign scorecards use the same).
func ns(t simtime.Time) int64 { return int64(t) / int64(simtime.Nanosecond) }

// SeriesSummary is one scraped series' end-of-run summary.
type SeriesSummary struct {
	Name string  `json:"name"`
	N    uint64  `json:"n"`   // samples ever recorded
	Sum  float64 `json:"sum"` // over retained raw+downsampled history
	Max  float64 `json:"max"`
	Last float64 `json:"last"`
}

// Distribution is one latency/size histogram's summary.
type Distribution struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// HeatCell is one heatmap cell in a report.
type HeatCell struct {
	P99Us  float64 `json:"p99us"` // 0 when no successful probe
	Probes uint64  `json:"probes"`
	Fails  uint64  `json:"fails"`
}

// AlertRecord is one SLO breach/clear in a report.
type AlertRecord struct {
	AtNs      int64   `json:"atNs"`
	Objective string  `json:"objective"`
	Cleared   bool    `json:"cleared"`
	BurnShort float64 `json:"burnShort"`
	BurnLong  float64 `json:"burnLong"`
}

// Report is a deterministic end-of-run health report: two runs from the
// same seed produce byte-identical Text and JSON renderings.
type Report struct {
	Scenario      string            `json:"scenario"`
	Seed          int64             `json:"seed"`
	DurationNs    int64             `json:"durationNs"`
	Scrapes       uint64            `json:"scrapes"`
	Breached      bool              `json:"breached"` // any objective ever breached
	Objectives    []ObjectiveStatus `json:"objectives"`
	Series        []SeriesSummary   `json:"series"`
	Distributions []Distribution    `json:"sketches"`
	HeatLabels    []string          `json:"heatLabels,omitempty"`
	Heatmap       [][]HeatCell      `json:"heatmap,omitempty"`
	Alerts        []AlertRecord     `json:"alerts"`
}

// NewReport starts an empty report.
func NewReport(scenario string, seed int64) *Report {
	return &Report{Scenario: scenario, Seed: seed,
		Objectives: []ObjectiveStatus{}, Series: []SeriesSummary{},
		Distributions: []Distribution{}, Alerts: []AlertRecord{}}
}

// AddScraper summarizes every scraped series (in the scraper's
// deterministic key order) and the scrape count.
func (r *Report) AddScraper(sc *Scraper) *Report {
	r.Scrapes = sc.Scrapes
	for _, k := range sc.Keys {
		ts := sc.Series[k]
		sum := ts.Window(0, 1<<62)
		last, _ := ts.Last()
		r.Series = append(r.Series, SeriesSummary{
			Name: k, N: ts.Total(),
			Sum: round3(sum.Sum), Max: round3(sum.Max), Last: round3(last.Sum),
		})
	}
	return r
}

// AddEngine records objective status, overall breach state, and the
// alert history.
func (r *Report) AddEngine(e *Engine) *Report {
	r.Objectives = append(r.Objectives, e.Status()...)
	r.Breached = r.Breached || e.EverBreached()
	for _, a := range e.Alerts {
		r.Alerts = append(r.Alerts, AlertRecord{
			AtNs: ns(a.At), Objective: a.Objective, Cleared: a.Cleared,
			BurnShort: round3(a.BurnShort), BurnLong: round3(a.BurnLong),
		})
	}
	return r
}

// AddHistogram summarizes one distribution under name.
func (r *Report) AddHistogram(name string, h *stats.Histogram) *Report {
	r.Distributions = append(r.Distributions, Distribution{
		Name: name, Count: h.Count(),
		P50: round3(h.Quantile(0.50)), P99: round3(h.Quantile(0.99)),
		P999: round3(h.Quantile(0.999)), Max: round3(h.Max()),
	})
	return r
}

// AddHeatmap snapshots a heatmap grid.
func (r *Report) AddHeatmap(h *Heatmap) *Report {
	r.HeatLabels = make([]string, h.n)
	r.Heatmap = make([][]HeatCell, h.n)
	for i := 0; i < h.n; i++ {
		r.HeatLabels[i] = h.label(i)
		r.Heatmap[i] = make([]HeatCell, h.n)
		for j := 0; j < h.n; j++ {
			p99, probes, fails := h.CellP99(i, j)
			r.Heatmap[i][j] = HeatCell{P99Us: round3(p99 / 1e6), Probes: probes, Fails: fails}
		}
	}
	return r
}

// Text renders the report deterministically.
func (r *Report) Text() string {
	var b strings.Builder
	verdict := "OK"
	if r.Breached {
		verdict = "BREACH"
	}
	fmt.Fprintf(&b, "health %s seed=%d duration=%dms scrapes=%d: %s\n",
		r.Scenario, r.Seed, r.DurationNs/1e6, r.Scrapes, verdict)
	if len(r.Objectives) > 0 {
		b.WriteString("objectives:\n")
		for _, o := range r.Objectives {
			state := "ok"
			switch {
			case o.Breached:
				state = "BREACHED"
			case o.EverBreached:
				state = "breached+cleared"
			}
			detect := "-"
			if o.FirstBreachNs >= 0 {
				detect = fmt.Sprintf("%.1fms", float64(o.FirstBreachNs)/1e6)
			}
			fmt.Fprintf(&b, "  %-32s %-16s first=%s breaches=%d burn=%.2f/%.2f\n",
				o.Name, state, detect, o.Breaches, o.BurnShort, o.BurnLong)
		}
	}
	if len(r.Distributions) > 0 {
		b.WriteString("distributions:\n")
		for _, s := range r.Distributions {
			fmt.Fprintf(&b, "  %-32s n=%d p50=%g p99=%g p99.9=%g max=%g\n",
				s.Name, s.Count, s.P50, s.P99, s.P999, s.Max)
		}
	}
	if len(r.Heatmap) > 0 {
		b.WriteString("heatmap (p99 us, !fails):\n")
		fmt.Fprintf(&b, "  %-8s", "")
		for _, l := range r.HeatLabels {
			fmt.Fprintf(&b, " %10s", l)
		}
		b.WriteByte('\n')
		for i, row := range r.Heatmap {
			fmt.Fprintf(&b, "  %-8s", r.HeatLabels[i])
			for _, c := range row {
				cell := "-"
				if c.Probes > 0 {
					if c.Probes > c.Fails {
						cell = fmt.Sprintf("%.1f", c.P99Us)
					} else {
						cell = "x"
					}
					if c.Fails > 0 {
						cell += fmt.Sprintf("!%d", c.Fails)
					}
				}
				fmt.Fprintf(&b, " %10s", cell)
			}
			b.WriteByte('\n')
		}
	}
	if len(r.Alerts) > 0 {
		b.WriteString("alerts:\n")
		for _, a := range r.Alerts {
			verb := "BREACH"
			if a.Cleared {
				verb = "clear"
			}
			fmt.Fprintf(&b, "  %8.1fms %-7s %s burn=%.2f/%.2f\n",
				float64(a.AtNs)/1e6, verb, a.Objective, a.BurnShort, a.BurnLong)
		}
	}
	return b.String()
}

// JSON renders the report as deterministic indented JSON.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }
