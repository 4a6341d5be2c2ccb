package health

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
	"rocesim/internal/telemetry"
	"rocesim/internal/topology"
)

// TestTieredSeriesFoldAndWindow records a known ramp and checks the
// retention ladder: raw ring bounded, 10 raw per mid bucket, 100 per
// coarse, and windowed aggregates matching brute force while the window
// stays inside raw retention.
func TestTieredSeriesFoldAndWindow(t *testing.T) {
	ts := NewTieredSeries("x", 50, 20, 10)
	tick := 10 * simtime.Millisecond
	for i := 1; i <= 1000; i++ {
		ts.Record(simtime.Time(tick*simtime.Duration(i)), float64(i))
	}
	raw, mid, coarse := ts.Tiers()
	if raw != 50 {
		t.Fatalf("raw retained %d, want cap 50", raw)
	}
	if mid != 20 {
		t.Fatalf("mid retained %d, want cap 20", mid)
	}
	if coarse != 10 {
		t.Fatalf("coarse retained %d, want 10 (1000 samples / 100)", coarse)
	}
	if ts.Total() != 1000 {
		t.Fatalf("total %d", ts.Total())
	}

	// Recent window (inside raw retention): exact.
	from, to := simtime.Time(tick*991), simtime.Time(tick*1000)
	b := ts.Window(from, to)
	if b.N != 10 || b.Min != 991 || b.Max != 1000 || b.Sum != (991+1000)*10/2 {
		t.Fatalf("raw window = %+v", b)
	}

	// Older window (raw evicted, mid retains 20 buckets = samples
	// 801..1000): answered from the mid tier with full-bucket granularity.
	from = simtime.Time(tick * 805)
	b = ts.Window(from, simtime.Time(tick*1000))
	if b.N < 190 || b.N > 200 {
		t.Fatalf("mid window N = %d, want ~196 (bucket granularity)", b.N)
	}
	if b.Max != 1000 {
		t.Fatalf("mid window max = %g", b.Max)
	}

	// Ancient window: only coarse can reach back; best effort.
	b = ts.Window(simtime.Time(tick*50), simtime.Time(tick*1000))
	if b.N != 1000 {
		t.Fatalf("coarse window N = %d, want 1000 (coarse retains all 10 buckets)", b.N)
	}
	if b.Sum != 1000*1001/2 {
		t.Fatalf("coarse window sum = %g", b.Sum)
	}

	if _, ok := NewTieredSeries("empty", 4, 4, 4).Last(); ok {
		t.Fatal("empty series has a last sample")
	}
}

// TestWindowBeforeHistoryStart is the regression for the report
// aggregate bug: a whole-run query (from=0) against a series whose raw
// ring never evicted must answer from raw with every sample — including
// the tail not yet folded into mid/coarse — not fall through to a
// downsampled tier holding only complete 10/100-sample folds.
func TestWindowBeforeHistoryStart(t *testing.T) {
	ts := NewTieredSeries("x", 64, 32, 16)
	tick := 10 * simtime.Millisecond
	for i := 1; i <= 16; i++ {
		ts.Record(simtime.Time(tick*simtime.Duration(i)), float64(i))
	}
	b := ts.Window(0, 1<<62)
	if b.N != 16 {
		t.Fatalf("whole-run window N = %d, want 16", b.N)
	}
	if b.Sum != 16*17/2 || b.Max != 16 {
		t.Fatalf("whole-run window = %+v", b)
	}
}

// TestWindowIncludesPendingFold: when raw has evicted and a query falls
// to the mid tier, the samples recorded since the last complete mid
// fold (sitting in the pending accumulator) still count.
func TestWindowIncludesPendingFold(t *testing.T) {
	ts := NewTieredSeries("x", 5, 32, 16)
	tick := 10 * simtime.Millisecond
	for i := 1; i <= 16; i++ {
		ts.Record(simtime.Time(tick*simtime.Duration(i)), float64(i))
	}
	// Raw (cap 5) evicted samples 1..11; mid never evicted, holding one
	// complete fold (1..10) plus six pending samples (11..16).
	b := ts.Window(0, 1<<62)
	if b.N != 16 {
		t.Fatalf("mid-tier window N = %d, want 16 (10 folded + 6 pending)", b.N)
	}
	if b.Sum != 16*17/2 || b.Max != 16 {
		t.Fatalf("mid-tier window = %+v", b)
	}
}

// TestScraperDeltasAndObserverBand drives counters from normal events
// and checks (a) counters scrape as per-interval deltas, (b) a counter
// bump scheduled at exactly the scrape instant is visible to that
// scrape — the observer band guarantees scrape-after-work ordering even
// for same-instant events, regardless of scheduling order.
func TestScraperDeltasAndObserverBand(t *testing.T) {
	k := sim.NewKernel(5)
	ctr := k.Metrics().Counter("tor-0/pause_rx")
	sc := NewScraper(k, ScrapeConfig{Interval: 10 * simtime.Millisecond})
	sc.Start()
	// Bump at exactly the second scrape instant (20ms), scheduled before
	// the scraper ever ran: still seen by the 20ms scrape.
	k.At(simtime.Time(20*simtime.Millisecond), func() { ctr.Add(7) })
	k.At(simtime.Time(25*simtime.Millisecond), func() { ctr.Add(3) })
	var probeVal float64
	sc.Probe("probe/depth", func() float64 { return probeVal })
	k.At(simtime.Time(12*simtime.Millisecond), func() { probeVal = 42 })

	k.RunUntil(simtime.Time(30 * simtime.Millisecond))
	if sc.Scrapes != 3 {
		t.Fatalf("scrapes = %d, want 3", sc.Scrapes)
	}
	s := sc.Series["tor-0/pause_rx"]
	if s == nil {
		t.Fatal("counter not scraped")
	}
	want := []float64{0, 7, 3}
	for i, w := range want {
		if got := s.raw.at(i).Sum; got != w {
			t.Fatalf("delta[%d] = %g, want %g", i, got, w)
		}
	}
	p := sc.Series["probe/depth"]
	if p == nil || p.raw.at(0).Sum != 0 || p.raw.at(1).Sum != 42 {
		t.Fatalf("probe series wrong: %+v", p)
	}
}

// TestScraperFilter: filtered-out keys never grow series.
func TestScraperFilter(t *testing.T) {
	k := sim.NewKernel(6)
	k.Metrics().Counter("tor-0/pause_rx").Add(1)
	k.Metrics().Counter("tor-0/tx_frames").Add(1)
	sc := NewScraper(k, ScrapeConfig{
		Interval: simtime.Millisecond,
		Filter:   func(key string) bool { return strings.HasSuffix(key, "/pause_rx") },
	})
	sc.Start()
	k.RunUntil(simtime.Time(5 * simtime.Millisecond))
	if _, ok := sc.Series["tor-0/tx_frames"]; ok {
		t.Fatal("filtered key scraped")
	}
	if _, ok := sc.Series["tor-0/pause_rx"]; !ok {
		t.Fatal("selected key not scraped")
	}
}

// TestScraperLateMetric: a metric registered after scraping began joins
// at the next round, after the series already seen, and a counter
// already scraped keeps its deltas across the re-listing.
func TestScraperLateMetric(t *testing.T) {
	k := sim.NewKernel(8)
	ctr := k.Metrics().Counter("tor-1/pause_rx")
	var late *telemetry.Counter
	sc := NewScraper(k, ScrapeConfig{Interval: 10 * simtime.Millisecond})
	sc.Start()
	k.At(simtime.Time(5*simtime.Millisecond), func() { ctr.Add(4) })
	k.At(simtime.Time(15*simtime.Millisecond), func() {
		late = k.Metrics().Counter("tor-0/pause_rx")
		late.Add(2)
		ctr.Add(1)
	})
	k.At(simtime.Time(25*simtime.Millisecond), func() { late.Add(5) })
	k.RunUntil(simtime.Time(30 * simtime.Millisecond))
	if want := []string{"tor-1/pause_rx", "tor-0/pause_rx"}; !slices.Equal(sc.Keys, want) {
		t.Fatalf("keys = %q, want %q", sc.Keys, want)
	}
	for key, want := range map[string][]float64{
		"tor-1/pause_rx": {4, 1, 0},
		"tor-0/pause_rx": {2, 5},
	} {
		s := sc.Series[key]
		for i, w := range want {
			if got := s.raw.at(i).Sum; got != w {
				t.Fatalf("%s delta[%d] = %g, want %g", key, i, got, w)
			}
		}
	}
}

// TestEngineBurnRateHysteresis drives a pause counter through storms
// and calm stretches, checking breach and clear timing, the
// announcement bus, FirstBreachAfter and Status.
func TestEngineBurnRateHysteresis(t *testing.T) {
	const ms = simtime.Millisecond
	// A storm's 1 ms ticks in (from, to] add 20 pause frames each, so a
	// scrape interval it covers sees a delta of at least 100.
	type storm struct{ from, to simtime.Duration }
	for _, tc := range []struct {
		name       string
		long       simtime.Duration
		clearAfter int
		storms     []storm
		want       []string // alerts in firing order
	}{
		// Scrapes at 40/50/60ms see deltas ≥ 100. The short window (1
		// scrape) burns 4 at 40ms; the long window (4 scrapes at the
		// half-open (now-w, now] boundary) needs two bad scrapes to burn
		// 2/4/0.25 = 2, so the breach opens at 50ms. The single bad
		// scrape at 40ms burns the long window at only 1/4/0.25 = 1: a
		// blip cannot page. Calm scrapes at 70 and 80ms clear it.
		{"blip-cannot-page", 40 * ms, 2, []storm{{35 * ms, 64 * ms}},
			[]string{"BREACH@50ms", "clear@80ms"}},
		// One-scrape windows, so every hot scrape burns both. The two
		// calm scrapes between the first two storms are fewer than
		// ClearAfter: the second storm folds into the open breach, with
		// no second page. Three calm scrapes then clear it, and the
		// storm after that real clear opens a second breach.
		{"back-to-back-storms", 10 * ms, 3, []storm{{0, 20 * ms}, {40 * ms, 60 * ms}, {90 * ms, 110 * ms}},
			[]string{"BREACH@10ms", "clear@90ms", "BREACH@100ms", "clear@140ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(7)
			ctr := k.Metrics().Counter("tor-0/pause_rx")
			sc := NewScraper(k, ScrapeConfig{Interval: 10 * ms})
			e := NewEngine(k, sc)
			e.Add(Objective{
				Name: "pause-ceiling", Bad: OverDelta(sc, "/pause_rx", 100),
				Budget: 0.25, ShortWindow: 10 * ms,
				LongWindow: tc.long, Burn: 2, ClearAfter: tc.clearAfter,
			})
			sc.Start()

			var announced []SLOAlert
			k.OnAnnounce(func(v any) {
				if a, ok := v.(SLOAlert); ok {
					announced = append(announced, a)
				}
			})
			ticks := k.NewTicker(ms, func() {
				now := simtime.Duration(k.Now())
				for _, s := range tc.storms {
					if now > s.from && now <= s.to {
						ctr.Add(20)
					}
				}
			})
			defer ticks.Stop()
			k.RunUntil(simtime.Time(150 * ms))

			var got []string
			var breaches []simtime.Time
			for _, a := range e.Alerts {
				verb := "clear"
				if !a.Cleared {
					verb = "BREACH"
					breaches = append(breaches, a.At)
				}
				got = append(got, fmt.Sprintf("%s@%v", verb, a.At))
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("alerts %v, want %v", got, tc.want)
			}
			if !slices.Equal(announced, e.Alerts) {
				t.Fatalf("bus saw %v, engine fired %v", announced, e.Alerts)
			}
			if e.Breached() {
				t.Fatal("breach still open after recovery")
			}
			if !e.EverBreached() {
				t.Fatal("EverBreached lost the breach")
			}
			for i, at := range breaches {
				if got, ok := e.FirstBreachAfter(at - 1); !ok || got != at {
					t.Fatalf("FirstBreachAfter(%v) = %v,%v, want breach %d at %v", at-1, got, ok, i, at)
				}
			}
			if _, ok := e.FirstBreachAfter(breaches[len(breaches)-1] + 1); ok {
				t.Fatal("FirstBreachAfter found a breach after the last storm")
			}
			st := e.Status()
			if len(st) != 1 || !st[0].EverBreached || st[0].Breaches != len(breaches) ||
				st[0].FirstBreachNs != int64(breaches[0]/simtime.Time(simtime.Nanosecond)) {
				t.Fatalf("status = %+v", st)
			}
		})
	}
}

// TestLatencyOverBadness: the sketch-delta badness function reports the
// over-target fraction per interval and 0 on idle intervals.
func TestLatencyOverBadness(t *testing.T) {
	sk := stats.NewSketch(0)
	bad := LatencyOver(sk, 1000)
	if got := bad(0); got != 0 {
		t.Fatalf("idle interval badness = %g", got)
	}
	for i := 0; i < 8; i++ {
		sk.Observe(500)
	}
	sk.Observe(5000)
	sk.Observe(6000)
	if got := bad(0); got < 0.15 || got > 0.25 {
		t.Fatalf("badness = %g, want ~0.2", got)
	}
	if got := bad(0); got != 0 {
		t.Fatalf("second read must see no new samples: %g", got)
	}
}

// TestBelowBadness: goodput-floor badness is binary on the sampled rate.
func TestBelowBadness(t *testing.T) {
	rate := 100.0
	bad := Below(func() float64 { return rate }, 50)
	if bad(0) != 0 {
		t.Fatal("healthy rate flagged")
	}
	rate = 10
	if bad(0) != 1 {
		t.Fatal("starved rate not flagged")
	}
}

// TestHeatmapRenderAndReportDiff builds a 2×2 heatmap by hand, renders
// it, snapshots a report twice (byte-identical), and diffs against a
// perturbed baseline.
func TestHeatmapRenderAndReportDiff(t *testing.T) {
	a := &topology.Server{TorIdx: 0}
	b := &topology.Server{TorIdx: 1}
	h := NewHeatmap(2, func(s *topology.Server) int { return s.TorIdx }, nil)
	for i := 0; i < 100; i++ {
		h.Observe(a, b, simtime.Duration(4*simtime.Microsecond), true)
		h.Observe(b, a, simtime.Duration(6*simtime.Microsecond), true)
	}
	h.Observe(a, b, 0, false)
	out := h.Render()
	if !strings.Contains(out, "!1") {
		t.Fatalf("failure marker missing:\n%s", out)
	}
	if !strings.Contains(out, "6.0") {
		t.Fatalf("p99 cell missing:\n%s", out)
	}
	p99, probes, fails := h.CellP99(0, 1)
	if probes != 101 || fails != 1 || p99 < 3.9e6 || p99 > 4.1e6 {
		t.Fatalf("cell = %g/%d/%d", p99, probes, fails)
	}

	mk := func() *Report {
		r := NewReport("test", 1)
		r.DurationNs = 1e9
		sk := stats.NewSketch(0)
		sk.Observe(1000)
		r.AddSketch("rtt", sk)
		r.AddHeatmap(h)
		return r
	}
	r1, r2 := mk(), mk()
	if r1.Text() != r2.Text() {
		t.Fatal("report text not deterministic")
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := r2.JSON()
	if string(j1) != string(j2) {
		t.Fatal("report JSON not deterministic")
	}
	if d := r1.Diff(r2, 0.01); len(d) != 0 {
		t.Fatalf("self-diff = %v", d)
	}

	// Perturb the baseline: breach flip + p99 shift beyond tolerance.
	base := mk()
	base.Breached = true
	base.Sketches[0].P99 *= 2
	base.Heatmap[0][1].Fails = 0
	d := r1.Diff(base, 0.01)
	if len(d) != 3 {
		t.Fatalf("diff = %v, want 3 drifts", d)
	}

	// Set drift must be symmetric: a renamed sketch registers both as
	// new-in-report and missing-from-baseline, and relabeled heatmap
	// groups register per label.
	base = mk()
	base.Sketches[0].Name = "fct"
	base.HeatLabels[1] = "pod-9"
	d = r1.Diff(base, 0.01)
	want := []string{"sketch rtt: not in baseline", "sketch fct: missing from report",
		"heatmap label[1]"}
	for _, w := range want {
		found := false
		for _, line := range d {
			if strings.Contains(line, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("diff missing %q: %v", w, d)
		}
	}
}
