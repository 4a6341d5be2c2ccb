package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"rocesim/internal/stats"
)

// refKey renders the canonical metric key: name{k=v,k2=v2} with labels
// sorted by key, or the bare name when unlabeled.
func refKey(name string, labels []Label) string {
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

type refCounter struct {
	k string
	v uint64
}

type refGauge struct {
	k  string
	fn func() float64
}

type refHistogram struct {
	k string
	h *stats.Histogram
}

// refRegistry is the map-keyed registry the block registry replaced,
// kept unchanged as the differential reference FuzzRegistry checks
// Registry against: every metric on its own, with its rendered key
// stored beside it, and one map from key to metric for duplicate checks
// and lookups. A block registers on it as one metric per member.
type refRegistry struct {
	counters   []*refCounter
	gauges     []refGauge
	histograms []refHistogram
	keys       map[string]refMetric
}

// refMetric locates a registered metric: its kind and its position in
// the registry's slice of that kind.
type refMetric struct {
	kind Kind
	i    int
}

func newRefRegistry() *refRegistry {
	return &refRegistry{keys: make(map[string]refMetric)}
}

func (r *refRegistry) claim(k string, kind Kind, i int) {
	n := len(r.keys)
	r.keys[k] = refMetric{kind: kind, i: i}
	if len(r.keys) == n {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", k))
	}
}

func (r *refRegistry) Counter(name string, labels ...Label) *refCounter {
	c := &refCounter{k: refKey(name, labels)}
	r.claim(c.k, KindCounter, len(r.counters))
	r.counters = append(r.counters, c)
	return c
}

func (r *refRegistry) Gauge(name string, fn func() float64, labels ...Label) {
	k := refKey(name, labels)
	r.claim(k, KindGauge, len(r.gauges))
	r.gauges = append(r.gauges, refGauge{k: k, fn: fn})
}

func (r *refRegistry) Histogram(name string, labels ...Label) *stats.Histogram {
	h := stats.NewHistogram()
	k := refKey(name, labels)
	r.claim(k, KindHistogram, len(r.histograms))
	r.histograms = append(r.histograms, refHistogram{k: k, h: h})
	return h
}

// memberLabels is what a publisher passed per member before blocks: the
// block labels followed by the member's own.
func memberLabels(m Metric, labels []Label) []Label {
	return append(append([]Label(nil), labels...), m.Labels...)
}

// Counters registers a block the way publishers did before blocks: one
// counter per member, in table order.
func (r *refRegistry) Counters(device string, table []Metric, labels ...Label) []*refCounter {
	var cs []*refCounter
	for _, m := range table {
		cs = append(cs, r.Counter(device+m.Suffix, memberLabels(m, labels)...))
	}
	return cs
}

// Gauges registers one gauge per member in members, in table order.
func (r *refRegistry) Gauges(device string, table []Metric, members uint64, fn func(i int) float64, labels ...Label) {
	for i, m := range table {
		if members&(1<<i) != 0 {
			i := i
			r.Gauge(device+m.Suffix, func() float64 { return fn(i) }, memberLabels(m, labels)...)
		}
	}
}

func (r *refRegistry) Has(name string, labels ...Label) bool {
	_, ok := r.keys[refKey(name, labels)]
	return ok
}

func (r *refRegistry) Len() int { return len(r.keys) }

// Reader returns the current value of the metric under k, and whether
// one is registered.
func (r *refRegistry) Reader(k string) (func() float64, bool) {
	ref, ok := r.keys[k]
	if !ok {
		return nil, false
	}
	return func() float64 {
		switch ref.kind {
		case KindCounter:
			return float64(r.counters[ref.i].v)
		case KindGauge:
			return r.gauges[ref.i].fn()
		default:
			return float64(r.histograms[ref.i].h.Count())
		}
	}, true
}

func (r *refRegistry) Snapshot() *Snapshot {
	s := &Snapshot{Entries: make([]Entry, 0, len(r.counters)+len(r.gauges)+len(r.histograms))}
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
	sort.Slice(s.Entries, func(i, j int) bool { return s.Entries[i].Key < s.Entries[j].Key })
	return s
}

// fmtText is the fmt.Fprintf renderer Snapshot.Text replaced, kept as
// its reference.
func fmtText(s *Snapshot) string {
	var b strings.Builder
	for _, e := range s.Entries {
		switch e.Kind {
		case KindHistogram:
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
