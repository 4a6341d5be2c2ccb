package health

import (
	"strings"

	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// ScrapeConfig tunes the scraper.
type ScrapeConfig struct {
	// Interval is the scrape cadence in simulated time (default 10ms,
	// the paper's counter collection cadence scaled down with everything
	// else; the real systems use seconds to minutes).
	Interval simtime.Duration
	// Filter, when set, selects which registry keys are scraped. Nil
	// scrapes every counter and gauge — fine for small fabrics, wasteful
	// for chaos campaigns that only watch pause and drop counters.
	Filter func(key string) bool
}

// rawCap, midCap and coarseCap bound every scraped and SLO series'
// retention ladder (buckets per tier; see TieredSeries).
const rawCap, midCap, coarseCap = 512, 256, 256

type probeEntry struct {
	name string
	fn   func() float64
}

// scraped is one registry metric the scraper samples: a counter or gauge
// the filter selected, read through a Reader.
type scraped struct {
	ts      *TieredSeries
	rd      telemetry.Reader
	counter bool
	last    float64 // a counter's value at the previous scrape
}

// Scraper samples the kernel's telemetry registry on a fixed cadence
// into TieredSeries — counters as per-interval deltas, gauges as spot
// values — plus any directly-wired probes (queue watermarks read
// straight off an MMU). Scrapes run in the kernel's observer band: at
// scrape time T every normal event of T has already fired, on every
// shard when the kernel is a shard group's global kernel, so a scrape
// reads the same values at any shard count. The scrape itself can never
// reorder component events, so adding or removing the health plane does
// not change a simulation's outcome.
//
// A round reads the selected metrics through registry Readers. The
// registry is snapshotted, and the filter run over its keys, only on the
// first round and when the registry has grown since.
type Scraper struct {
	k   *sim.Kernel
	cfg ScrapeConfig

	// Series holds one TieredSeries per scraped key; Keys preserves
	// first-seen order (deterministic: snapshots sort by key and probes
	// register in wiring order).
	Series map[string]*TieredSeries
	Keys   []string

	// Scrapes counts completed scrape rounds.
	Scrapes uint64

	metrics  []scraped // in key order
	resolved int       // the registry's Len when metrics were listed; -1 before
	probes   []probeEntry
	onScrape []func(now simtime.Time)
	started  bool
}

// NewScraper builds a scraper on the kernel's registry. Call Start to
// begin scraping.
func NewScraper(k *sim.Kernel, cfg ScrapeConfig) *Scraper {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * simtime.Millisecond
	}
	return &Scraper{
		k: k, cfg: cfg,
		Series:   make(map[string]*TieredSeries),
		resolved: -1,
	}
}

// Interval returns the scrape cadence.
func (s *Scraper) Interval() simtime.Duration { return s.cfg.Interval }

// Probe wires a direct sampler: fn is read once per scrape and recorded
// under name. This is how state with no registry metric — a switch
// MMU's shared-buffer watermark — joins the health plane without
// registering new gauges (which would churn every metrics golden).
func (s *Scraper) Probe(name string, fn func() float64) {
	s.probes = append(s.probes, probeEntry{name: name, fn: fn})
}

// OnScrape registers fn to run after each scrape round, once all series
// hold the round's samples. Hooks run in registration order — the SLO
// engine keys off this, keeping alert ordering deterministic.
func (s *Scraper) OnScrape(fn func(now simtime.Time)) {
	s.onScrape = append(s.onScrape, fn)
}

// Start begins scraping every Interval. Starting twice is a no-op.
func (s *Scraper) Start() {
	if s.started {
		return
	}
	s.started = true
	s.k.AfterObserve(s.cfg.Interval, s.scrape)
}

// series returns name's series, creating it on first use. The name is
// cloned: a key sliced from a snapshot would keep every key alive.
func (s *Scraper) series(name string) *TieredSeries {
	ts, ok := s.Series[name]
	if !ok {
		name = strings.Clone(name)
		ts = NewTieredSeries(name, rawCap, midCap, coarseCap)
		s.Series[name] = ts
		s.Keys = append(s.Keys, name)
	}
	return ts
}

// resolve lists the counters and gauges the filter selects, in key
// order, each with its series and a Reader. It runs on the first scrape
// and again only when the registry has grown: a snapshot renders every
// key of the registry, and the filter may keep a few of them.
func (s *Scraper) resolve(reg *telemetry.Registry) {
	last := make(map[*TieredSeries]float64, len(s.metrics))
	for _, m := range s.metrics {
		last[m.ts] = m.last
	}
	s.metrics = s.metrics[:0]
	for _, e := range reg.Snapshot().Entries {
		// Histograms are cumulative distributions; windowed
		// objectives read them directly (see LatencyOver).
		if e.Kind != telemetry.KindCounter && e.Kind != telemetry.KindGauge ||
			s.cfg.Filter != nil && !s.cfg.Filter(e.Key) {
			continue
		}
		rd, _ := reg.Reader(e.Key)
		ts := s.series(e.Key)
		s.metrics = append(s.metrics, scraped{ts: ts, rd: rd, counter: e.Kind == telemetry.KindCounter, last: last[ts]})
	}
	s.resolved = reg.Len()
}

func (s *Scraper) scrape() {
	s.k.AfterObserve(s.cfg.Interval, s.scrape)
	now := s.k.Now()
	if reg := s.k.Metrics(); reg.Len() != s.resolved {
		s.resolve(reg)
	}
	for i := range s.metrics {
		m := &s.metrics[i]
		v := m.rd.Value()
		if !m.counter {
			m.ts.Record(now, v)
			continue
		}
		// Counters become per-interval delta series — the "pause frames
		// received in the last interval" shape of Figures 9/10.
		m.ts.Record(now, v-m.last)
		m.last = v
	}
	for _, p := range s.probes {
		s.series(p.name).Record(now, p.fn())
	}
	s.Scrapes++
	for _, fn := range s.onScrape {
		fn(now)
	}
}
