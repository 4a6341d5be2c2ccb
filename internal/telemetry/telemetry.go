// Package telemetry is the simulator's unified instrumentation layer:
// a metric registry that components publish named counters, gauges and
// histograms into at construction time, and a packet-lifecycle trace bus
// (see trace.go) that streams typed per-hop events to subscribers.
//
// The paper (§5) calls its monitoring systems indispensable to running
// RoCEv2 safely at scale; this package is their in-simulator equivalent.
// Everything the monitoring stack, the experiment harnesses and the
// report binaries read flows through one of these two channels instead
// of ad-hoc per-component counter structs.
//
// Like the simulation kernel, a registry is single-threaded and fully
// deterministic: metrics snapshot in sorted key order, so two runs from
// the same seed render byte-identical snapshots.
package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"rocesim/internal/stats"
)

// Label is one key=value dimension attached to a metric (e.g. port=3).
// Labeled metrics address per-port or per-priority breakdowns without
// exploding the flat name space.
type Label struct {
	K, V string
}

// L is shorthand for constructing a Label.
func L(k string, v interface{}) Label { return Label{K: k, V: fmt.Sprint(v)} }

// key renders the canonical metric key: name{k=v,k2=v2} with labels
// sorted by key, or the bare name when unlabeled.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteByte('=')
		b.WriteString(l.V)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing metric. The nil Counter is a
// valid no-op sink, so optional instrumentation costs one nil check.
type Counter struct {
	k string
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current total (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Key returns the canonical metric key.
func (c *Counter) Key() string {
	if c == nil {
		return ""
	}
	return c.k
}

// gauge samples a live value through a closure at snapshot time.
type gauge struct {
	k  string
	fn func() float64
}

// histogram wraps a stats.Histogram under a registry key.
type histogram struct {
	k string
	h *stats.Histogram
}

// sketch wraps a mergeable stats.Sketch under a registry key.
type sketch struct {
	k string
	s *stats.Sketch
}

// Registry holds every metric of one simulation. Components register at
// construction; consumers read via Snapshot, or through a Reader when
// they poll a few keys often. Registration order is deterministic
// (simulations are single-threaded), and snapshots sort by key, so a
// registry never introduces nondeterminism.
type Registry struct {
	counters   []*Counter
	gauges     []gauge
	histograms []histogram
	sketches   []sketch
	keys       map[string]metricRef
}

// metricRef locates a registered metric: its kind and its position in
// the registry's slice of that kind.
type metricRef struct {
	kind refKind
	i    int32
}

type refKind uint8

const (
	refCounter refKind = iota
	refGauge
	refHistogram
	refSketch
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[string]metricRef)}
}

// claim reserves a key for the i-th metric of a kind, panicking on
// duplicates: two components publishing under one name is always a
// wiring bug.
func (r *Registry) claim(k string, kind refKind, i int) {
	// One map operation per registration: a duplicate overwrites its key
	// instead of growing the map. The registry is not usable after the
	// panic, which ends a mis-wired build.
	n := len(r.keys)
	r.keys[k] = metricRef{kind: kind, i: int32(i)}
	if len(r.keys) == n {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", k))
	}
}

// Counter registers and returns a counter. A nil registry returns a nil
// (no-op) counter, so components can be built without telemetry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{k: key(name, labels)}
	r.claim(c.k, refCounter, len(r.counters))
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers a gauge whose value is read through fn at snapshot
// time — the bridge for state that lives in component structs (queue
// depths, accumulated pause time, cache hit counts).
func (r *Registry) Gauge(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	k := key(name, labels)
	r.claim(k, refGauge, len(r.gauges))
	r.gauges = append(r.gauges, gauge{k: k, fn: fn})
}

// Histogram registers and returns a streaming histogram (shared with
// package stats, so latency distributions publish without copying).
// A nil registry returns an unregistered histogram that still records.
func (r *Registry) Histogram(name string, labels ...Label) *stats.Histogram {
	h := stats.NewHistogram()
	if r == nil {
		return h
	}
	k := key(name, labels)
	r.claim(k, refHistogram, len(r.histograms))
	r.histograms = append(r.histograms, histogram{k: k, h: h})
	return h
}

// Sketch registers and returns a mergeable relative-error quantile
// sketch (stats.Sketch at its default 1% accuracy) — the scalable
// replacement for exact-percentile sorting: latency distributions from
// thousands of devices publish and merge by bucket addition. A nil
// registry returns an unregistered sketch that still records.
func (r *Registry) Sketch(name string, labels ...Label) *stats.Sketch {
	s := stats.NewSketch(0)
	if r == nil {
		return s
	}
	k := key(name, labels)
	r.claim(k, refSketch, len(r.sketches))
	r.sketches = append(r.sketches, sketch{k: k, s: s})
	return s
}

// Has reports whether a metric is already registered under name+labels.
// Components that may be constructed more than once per simulation use
// it to fall back to unregistered instruments instead of panicking.
func (r *Registry) Has(name string, labels ...Label) bool {
	if r == nil {
		return false
	}
	_, ok := r.keys[key(name, labels)]
	return ok
}

// Len returns the number of registered metrics. It only grows, so a
// consumer holding Readers re-resolves when Len changes.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.keys)
}

// Reader reads one registered metric's current scalar value: the Value
// its Snapshot entry would carry (a histogram's or sketch's sample
// count), without snapshotting, sorting or summarizing the rest of the
// registry. The zero Reader reads 0.
type Reader struct {
	r   *Registry
	ref metricRef
}

// Reader returns a reader for the metric registered under the canonical
// key k, and whether one is registered.
func (r *Registry) Reader(k string) (Reader, bool) {
	if r == nil {
		return Reader{}, false
	}
	ref, ok := r.keys[k]
	if !ok {
		return Reader{}, false
	}
	return Reader{r: r, ref: ref}, true
}

// Value reads the metric's current value.
func (rd Reader) Value() float64 {
	if rd.r == nil {
		return 0
	}
	switch rd.ref.kind {
	case refCounter:
		return float64(rd.r.counters[rd.ref.i].v)
	case refGauge:
		return rd.r.gauges[rd.ref.i].fn()
	case refHistogram:
		return float64(rd.r.histograms[rd.ref.i].h.Count())
	default:
		return float64(rd.r.sketches[rd.ref.i].s.Count())
	}
}

// Kind classifies a snapshot entry.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
	KindSketch    Kind = "sketch"
)

// HistValues carries the summary statistics of a histogram entry.
type HistValues struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Entry is one metric in a snapshot.
type Entry struct {
	Key   string      `json:"key"`
	Kind  Kind        `json:"kind"`
	Value float64     `json:"value"`
	Hist  *HistValues `json:"hist,omitempty"`
}

// Snapshot is a point-in-time view of a registry, sorted by key.
// Identical simulation runs produce byte-identical Text() and JSON().
type Snapshot struct {
	Entries []Entry
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	s := &Snapshot{Entries: make([]Entry, 0, len(r.counters)+len(r.gauges)+len(r.histograms)+len(r.sketches))}
	for _, c := range r.counters {
		s.Entries = append(s.Entries, Entry{Key: c.k, Kind: KindCounter, Value: float64(c.v)})
	}
	for _, g := range r.gauges {
		s.Entries = append(s.Entries, Entry{Key: g.k, Kind: KindGauge, Value: g.fn()})
	}
	for _, h := range r.histograms {
		s.Entries = append(s.Entries, Entry{Key: h.k, Kind: KindHistogram,
			Value: float64(h.h.Count()),
			Hist: &HistValues{
				Count: h.h.Count(), Mean: h.h.Mean(), Min: h.h.Min(), Max: h.h.Max(),
				P50: h.h.Quantile(0.50), P99: h.h.Quantile(0.99), P999: h.h.Quantile(0.999),
			}})
	}
	for _, sk := range r.sketches {
		// Sketch entries reuse the histogram summary shape (Hist), so
		// consumers read quantiles the same way for either kind.
		s.Entries = append(s.Entries, Entry{Key: sk.k, Kind: KindSketch,
			Value: float64(sk.s.Count()),
			Hist: &HistValues{
				Count: sk.s.Count(), Mean: sk.s.Mean(), Min: sk.s.Min(), Max: sk.s.Max(),
				P50: sk.s.Quantile(0.50), P99: sk.s.Quantile(0.99), P999: sk.s.Quantile(0.999),
			}})
	}
	sort.Slice(s.Entries, func(i, j int) bool { return s.Entries[i].Key < s.Entries[j].Key })
	return s
}

// Get returns the entry for key.
func (s *Snapshot) Get(k string) (Entry, bool) {
	i := sort.Search(len(s.Entries), func(i int) bool { return s.Entries[i].Key >= k })
	if i < len(s.Entries) && s.Entries[i].Key == k {
		return s.Entries[i], true
	}
	return Entry{}, false
}

// Counter returns the value of a counter entry (0 when absent).
func (s *Snapshot) Counter(k string) uint64 {
	e, ok := s.Get(k)
	if !ok {
		return 0
	}
	return uint64(e.Value)
}

// Value returns any entry's scalar value (0 when absent).
func (s *Snapshot) Value(k string) float64 {
	e, _ := s.Get(k)
	return e.Value
}

// Sum totals the values of all entries the predicate accepts — the
// aggregation primitive experiments use ("pause_tx across all ToRs").
func (s *Snapshot) Sum(pred func(Entry) bool) float64 {
	t := 0.0
	for _, e := range s.Entries {
		if pred(e) {
			t += e.Value
		}
	}
	return t
}

// SumSuffix totals counters and gauges whose key ends in suffix.
func (s *Snapshot) SumSuffix(suffix string) float64 {
	return s.Sum(func(e Entry) bool { return strings.HasSuffix(e.Key, suffix) })
}

// Filter returns a sub-snapshot of the entries the predicate accepts.
func (s *Snapshot) Filter(pred func(Entry) bool) *Snapshot {
	out := &Snapshot{}
	for _, e := range s.Entries {
		if pred(e) {
			out.Entries = append(out.Entries, e)
		}
	}
	return out
}

// Text renders the snapshot one metric per line ("key value"),
// deterministically.
func (s *Snapshot) Text() string {
	var b strings.Builder
	for _, e := range s.Entries {
		switch e.Kind {
		case KindHistogram, KindSketch:
			h := e.Hist
			fmt.Fprintf(&b, "%s count=%d mean=%g min=%g max=%g p50=%g p99=%g p99.9=%g\n",
				e.Key, h.Count, h.Mean, h.Min, h.Max, h.P50, h.P99, h.P999)
		case KindCounter:
			fmt.Fprintf(&b, "%s %d\n", e.Key, uint64(e.Value))
		default:
			fmt.Fprintf(&b, "%s %g\n", e.Key, e.Value)
		}
	}
	return b.String()
}

// JSON renders the snapshot as a deterministic JSON array.
func (s *Snapshot) JSON() ([]byte, error) {
	es := s.Entries
	if es == nil {
		es = []Entry{} // render "[]", not "null"
	}
	return json.MarshalIndent(es, "", "  ")
}
