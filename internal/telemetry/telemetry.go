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
	"math/bits"
	"slices"
	"sort"
	"strconv"
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

// inlineLabels is how many labels a key renders or compares without
// allocating.
const inlineLabels = 8

// sortLabels orders labels by key, keeping registration order among
// equal keys. Label sets are a handful long, so insertion sort it is.
func sortLabels(ls []Label) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].K < ls[j-1].K; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// writeLabels renders a sorted label set as "{k=v,k2=v2}", or nothing
// when it is empty.
func writeLabels(b *strings.Builder, ls []Label) {
	for i, l := range ls {
		if i == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteByte('=')
		b.WriteString(l.V)
	}
	if len(ls) > 0 {
		b.WriteByte('}')
	}
}

// labelsLen is the rendered length of two label sets merged.
func labelsLen(a, b []Label) int {
	n := len(a) + len(b)
	if n == 0 {
		return 0
	}
	n++ // the braces, plus one separator per label but the first
	for _, l := range a {
		n += len(l.K) + len(l.V) + 1
	}
	for _, l := range b {
		n += len(l.K) + len(l.V) + 1
	}
	return n
}

// key renders the canonical metric key: name{k=v,k2=v2} with labels
// sorted by key, or the bare name when unlabeled.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var buf [inlineLabels]Label
	ls := append(buf[:0], labels...)
	sortLabels(ls)
	var b strings.Builder
	b.Grow(len(name) + labelsLen(ls, nil))
	b.WriteString(name)
	writeLabels(&b, ls)
	return b.String()
}

// bucketOf returns the device-index slot of a rendered key: its name
// (the text before the label set) up to the name's last '/'. A block's
// keys all land in the slot of its device.
func bucketOf(k string) string {
	if i := strings.IndexByte(k, '{'); i >= 0 {
		k = k[:i]
	}
	if i := strings.LastIndexByte(k, '/'); i >= 0 {
		return k[:i]
	}
	return k
}

// Metric names one member of a metric block: a suffix appended to the
// device name ("/pause_time_ps") and the labels of that member alone
// (pri=3). A publisher declares its blocks once, as package-level
// tables it never modifies. A suffix starts with '/' and holds no other
// '/' and no '{'.
type Metric struct {
	Suffix string
	Labels []Label
}

// Counter is a monotonically increasing metric. The nil Counter is a
// valid no-op sink, so optional instrumentation costs one nil check.
type Counter struct {
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

// entry is one registration: a block of metrics that share a device and
// block labels, or a single metric, stored as a one-member entry whose
// dev is its rendered key. Keys are not stored; they render on demand.
type entry struct {
	next  int32    // the device's next older entry; -1 ends the chain
	bare  bool     // no table member carries labels of its own
	dev   string   // a block's device, or a single metric's key
	table []Metric // a block's member names; nil for a single
	// labels are the block labels, sorted by key.
	labels []Label
	// use has bit i set when table[i] is registered (bit 0 for a single).
	use uint64
	// counters is a counter entry's slab, indexed like table.
	counters []Counter
	// x is a gauge's func(int) float64 (a block, called with the table
	// index) or func() float64 (a single), or a *stats.Histogram; nil
	// for counters.
	x any
}

// labelsOf returns member i's block and member labels merged in key
// order, appended to buf.
func (e *entry) labelsOf(i int, buf []Label) []Label {
	ls := append(buf, e.labels...)
	if e.table != nil && len(e.table[i].Labels) > 0 {
		ls = append(ls, e.table[i].Labels...)
		sortLabels(ls)
	}
	return ls
}

// keyLen is the rendered length of member i's key.
func (e *entry) keyLen(i int) int {
	if e.table == nil {
		return len(e.dev)
	}
	m := &e.table[i]
	return len(e.dev) + len(m.Suffix) + labelsLen(e.labels, m.Labels)
}

// writeKey renders member i's key.
func (e *entry) writeKey(b *strings.Builder, i int) {
	b.WriteString(e.dev)
	if e.table == nil {
		return
	}
	b.WriteString(e.table[i].Suffix)
	var buf [inlineLabels]Label
	writeLabels(b, e.labelsOf(i, buf[:0]))
}

// key returns member i's rendered key.
func (e *entry) key(i int) string {
	if e.table == nil {
		return e.dev
	}
	var b strings.Builder
	b.Grow(e.keyLen(i))
	e.writeKey(&b, i)
	return b.String()
}

// matches reports whether k is member i's key, comparing piece by piece
// instead of rendering it.
func (e *entry) matches(k string, i int) bool {
	if e.table == nil {
		return k == e.dev
	}
	s := e.table[i].Suffix
	if len(k) < len(e.dev)+len(s) || k[:len(e.dev)] != e.dev || k[len(e.dev):len(e.dev)+len(s)] != s {
		return false
	}
	k = k[len(e.dev)+len(s):]
	var buf [inlineLabels]Label
	ls := e.labelsOf(i, buf[:0])
	if len(ls) == 0 {
		return k == ""
	}
	for j, l := range ls {
		sep := byte(',')
		if j == 0 {
			sep = '{'
		}
		n := len(l.K) + len(l.V) + 2
		if len(k) < n || k[0] != sep || k[1:1+len(l.K)] != l.K || k[1+len(l.K)] != '=' || k[2+len(l.K):n] != l.V {
			return false
		}
		k = k[n:]
	}
	return k == "}"
}

// value reads member i's scalar: what its snapshot entry's Value holds.
func (e *entry) value(i int) float64 {
	switch x := e.x.(type) {
	case func(int) float64:
		return x(i)
	case func() float64:
		return x()
	case *stats.Histogram:
		return float64(x.Count())
	}
	return float64(e.counters[i].v)
}

// snapEntry is member i's snapshot entry under key k.
func (e *entry) snapEntry(k string, i int) Entry {
	switch x := e.x.(type) {
	case *stats.Histogram:
		return Entry{Key: k, Kind: KindHistogram, Value: float64(x.Count()), Hist: &HistValues{
			Count: x.Count(), Mean: x.Mean(), Min: x.Min(), Max: x.Max(),
			P50: x.Quantile(0.50), P99: x.Quantile(0.99), P999: x.Quantile(0.999),
		}}
	}
	if e.x != nil {
		return Entry{Key: k, Kind: KindGauge, Value: e.value(i)}
	}
	return Entry{Key: k, Kind: KindCounter, Value: float64(e.counters[i].v)}
}

// sameKey reports whether member i of block x and member j of block y
// render the same key: whether their devices, suffixes and merged labels
// are equal (see block).
func sameKey(x *entry, i int, y *entry, j int) bool {
	if x.dev != y.dev || x.table[i].Suffix != y.table[j].Suffix {
		return false
	}
	var xb, yb [inlineLabels]Label
	return slices.Equal(x.labelsOf(i, xb[:0]), y.labelsOf(j, yb[:0]))
}

// firstClash returns the first member of x (in table order) whose key a
// member of y already has, or -1. Most pairs of blocks are ruled out
// whole: the devices differ, or the block labels do where no member
// label can make up for it. Member labels cannot when neither block has
// any, nor when both blocks' label keys are the same: merging puts a
// block's labels before a member's of the same key, so equal merged
// labels would need equal block labels.
func firstClash(x, y *entry) int {
	switch {
	case x.table == nil:
		for u := y.use; u != 0; u &= u - 1 {
			if y.matches(x.dev, bits.TrailingZeros64(u)) {
				return 0
			}
		}
		return -1
	case y.table == nil:
		for u := x.use; u != 0; u &= u - 1 {
			if i := bits.TrailingZeros64(u); x.matches(y.dev, i) {
				return i
			}
		}
		return -1
	case x.dev != y.dev || !slices.Equal(x.labels, y.labels) &&
		(x.bare && y.bare || slices.EqualFunc(x.labels, y.labels, func(a, b Label) bool { return a.K == b.K })):
		return -1
	}
	for u := x.use; u != 0; u &= u - 1 {
		i := bits.TrailingZeros64(u)
		for w := y.use; w != 0; w &= w - 1 {
			if sameKey(x, i, y, bits.TrailingZeros64(w)) {
				return i
			}
		}
	}
	return -1
}

// selfClash returns the first member of block x whose key an earlier
// member of x has, or -1.
func selfClash(x *entry) int {
	if x.table == nil {
		return -1
	}
	for u := x.use; u != 0; u &= u - 1 {
		i := bits.TrailingZeros64(u)
		for w := x.use & (1<<i - 1); w != 0; w &= w - 1 {
			if sameKey(x, i, x, bits.TrailingZeros64(w)) {
				return i
			}
		}
	}
	return -1
}

// entryChunk is how many entries one chunk of the registry's store
// holds. Every chunk after the first is allocated full-size, so a
// growing fleet registry never copies its entries.
const entryChunk = 256

// Registry holds every metric of one simulation. Components register at
// construction; consumers read via Snapshot, or through a Reader when
// they poll a few keys often. Registration order is deterministic
// (simulations are single-threaded), and snapshots sort by key, so a
// registry never introduces nondeterminism.
//
// A publisher registers each device's metrics as blocks (Counters,
// Gauges): one entry per device and label set, its counters in one slab,
// its gauges read through one function. Keys render only when a
// snapshot is taken or a lookup compares them. The device index maps
// each device to its entries, so a lookup or duplicate check costs the
// entries of one device.
type Registry struct {
	chunks  [][]entry
	entries int32
	n       int              // registered metrics
	devices map[string]int32 // device → its newest entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{devices: make(map[string]int32)}
}

func (r *Registry) entry(i int32) *entry { return &r.chunks[i/entryChunk][i%entryChunk] }

// add files e under the device slot dev, panicking if any of its keys
// is registered already: two components publishing under one name is
// always a wiring bug.
func (r *Registry) add(e entry, dev string) {
	if e.use == 0 {
		return
	}
	head, ok := r.devices[dev]
	if !ok {
		head = -1
	}
	clash := selfClash(&e)
	for j := head; j >= 0; {
		y := r.entry(j)
		if c := firstClash(&e, y); c >= 0 && (clash < 0 || c < clash) {
			clash = c
		}
		j = y.next
	}
	if clash >= 0 {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", e.key(clash)))
	}
	e.next = head
	switch {
	case len(r.chunks) == 0:
		r.chunks = [][]entry{nil} // the first chunk grows by append: small registries stay small
	case len(r.chunks[len(r.chunks)-1]) == entryChunk:
		r.chunks = append(r.chunks, make([]entry, 0, entryChunk))
	}
	last := &r.chunks[len(r.chunks)-1]
	*last = append(*last, e)
	r.devices[dev] = r.entries
	r.entries++
	r.n += bits.OnesCount64(e.use)
}

// block builds the entry for a block of table members, validating the
// table. A block's device holds no '{' and no label key or value of it
// holds ',' or '=', so every key it renders parses back into its device,
// suffix and label sequence: two block keys are equal exactly when those
// are, and the duplicate check compares them piece by piece.
func block(device string, table []Metric, use uint64, labels []Label) entry {
	if len(table) > 64 || use&^(1<<len(table)-1) != 0 {
		panic(fmt.Sprintf("telemetry: %s: members %#x outside a %d-member table", device, use, len(table)))
	}
	if strings.IndexByte(device, '{') >= 0 {
		panic(fmt.Sprintf("telemetry: block device %q holds '{'", device))
	}
	checkLabels(labels)
	if len(labels) > 1 {
		labels = append([]Label(nil), labels...)
		sortLabels(labels)
	}
	bare := true
	for _, m := range table {
		if s := m.Suffix; s == "" || s[0] != '/' || strings.IndexByte(s[1:], '/') >= 0 || strings.IndexByte(s, '{') >= 0 {
			panic(fmt.Sprintf("telemetry: metric suffix %q", s))
		}
		checkLabels(m.Labels)
		bare = bare && len(m.Labels) == 0
	}
	return entry{bare: bare, dev: device, table: table, labels: labels, use: use}
}

// checkLabels panics on a block label whose key or value holds ',' or '='.
func checkLabels(ls []Label) {
	for _, l := range ls {
		if strings.ContainsAny(l.K, ",=") || strings.ContainsAny(l.V, ",=") {
			panic(fmt.Sprintf("telemetry: block label %q=%q holds ',' or '='", l.K, l.V))
		}
	}
}

// Counters registers a block of counters, one per table member, named
// device+Suffix with the member's labels and labels, and returns them as
// one slab: &slab[i] is table[i]'s counter. The registry keeps labels;
// callers must not modify them afterwards. A device holding '{', or a
// block or member label holding ',' or '=', panics: singles take such
// keys, blocks do not. A nil registry returns an unregistered slab that
// still counts.
func (r *Registry) Counters(device string, table []Metric, labels ...Label) []Counter {
	c := make([]Counter, len(table))
	if r != nil {
		e := block(device, table, 1<<len(table)-1, labels)
		e.counters = c
		r.add(e, device)
	}
	return c
}

// Gauges registers a block of gauges for the table members whose bit is
// set in members (bit i: table[i]), each read through fn(i) at snapshot
// time. Naming is as for Counters.
func (r *Registry) Gauges(device string, table []Metric, members uint64, fn func(i int) float64, labels ...Label) {
	if r == nil {
		return
	}
	e := block(device, table, members, labels)
	e.x = fn
	r.add(e, device)
}

// single registers one metric under its rendered key.
func (r *Registry) single(e entry, name string, labels []Label) {
	e.dev = key(name, labels)
	e.use = 1
	r.add(e, bucketOf(e.dev))
}

// Counter registers and returns a counter. A nil registry returns a nil
// (no-op) counter, so components can be built without telemetry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := make([]Counter, 1)
	r.single(entry{counters: c}, name, labels)
	return &c[0]
}

// Gauge registers a gauge whose value is read through fn at snapshot
// time — the bridge for state that lives in component structs (queue
// depths, accumulated pause time, cache hit counts).
func (r *Registry) Gauge(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.single(entry{x: fn}, name, labels)
}

// Histogram registers and returns a streaming histogram (shared with
// package stats, so latency distributions publish without copying).
// A nil registry returns an unregistered histogram that still records.
func (r *Registry) Histogram(name string, labels ...Label) *stats.Histogram {
	h := stats.NewHistogram()
	if r == nil {
		return h
	}
	r.single(entry{x: h}, name, labels)
	return h
}

// lookup finds the entry and member registered under key k.
func (r *Registry) lookup(k string) (int32, int, bool) {
	j, ok := r.devices[bucketOf(k)]
	for ok && j >= 0 {
		e := r.entry(j)
		if strings.HasPrefix(k, e.dev) {
			for u := e.use; u != 0; u &= u - 1 {
				if i := bits.TrailingZeros64(u); e.matches(k, i) {
					return j, i, true
				}
			}
		}
		j = e.next
	}
	return 0, 0, false
}

// Has reports whether a metric is already registered under name+labels.
// Components that may be constructed more than once per simulation use
// it to fall back to unregistered instruments instead of panicking.
func (r *Registry) Has(name string, labels ...Label) bool {
	if r == nil {
		return false
	}
	_, _, ok := r.lookup(key(name, labels))
	return ok
}

// Len returns the number of registered metrics. It only grows, so a
// consumer holding Readers re-resolves when Len changes.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Reader reads one registered metric's current scalar value: the Value
// its Snapshot entry would carry (a histogram's sample
// count), without snapshotting, sorting or summarizing the rest of the
// registry. The zero Reader reads 0.
type Reader struct {
	c      *Counter // a counter's slab slot; nil for other kinds
	r      *Registry
	e      int32
	member int32
}

// Reader returns a reader for the metric registered under the canonical
// key k, and whether one is registered.
func (r *Registry) Reader(k string) (Reader, bool) {
	if r == nil {
		return Reader{}, false
	}
	e, i, ok := r.lookup(k)
	if !ok {
		return Reader{}, false
	}
	if c := r.entry(e).counters; c != nil {
		return Reader{c: &c[i]}, true
	}
	return Reader{r: r, e: e, member: int32(i)}, true
}

// Value reads the metric's current value.
func (rd Reader) Value() float64 {
	switch {
	case rd.c != nil:
		return float64(rd.c.v)
	case rd.r == nil:
		return 0
	}
	return rd.r.entry(rd.e).value(int(rd.member))
}

// Kind classifies a snapshot entry.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
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

// Snapshot captures every registered metric. All keys render into one
// buffer, sized up front; each entry's Key is a slice of it.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	size := 0
	for _, c := range r.chunks {
		for j := range c {
			for u := c[j].use; u != 0; u &= u - 1 {
				size += c[j].keyLen(bits.TrailingZeros64(u))
			}
		}
	}
	var keys strings.Builder
	keys.Grow(size)
	s := &Snapshot{Entries: make([]Entry, 0, r.n)}
	for _, c := range r.chunks {
		for j := range c {
			e := &c[j]
			for u := e.use; u != 0; u &= u - 1 {
				i := bits.TrailingZeros64(u)
				start := keys.Len()
				e.writeKey(&keys, i)
				s.Entries = append(s.Entries, e.snapEntry(keys.String()[start:], i))
			}
		}
	}
	slices.SortFunc(s.Entries, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
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

// appendLine renders one entry as its Text line. Floats take the
// shortest 'g' form, byte for byte what fmt's %g prints.
func appendLine(b []byte, e *Entry) []byte {
	b = append(b, e.Key...)
	switch e.Kind {
	case KindHistogram:
		h := e.Hist
		b = strconv.AppendUint(append(b, " count="...), h.Count, 10)
		b = strconv.AppendFloat(append(b, " mean="...), h.Mean, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, " min="...), h.Min, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, " max="...), h.Max, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, " p50="...), h.P50, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, " p99="...), h.P99, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, " p99.9="...), h.P999, 'g', -1, 64)
	case KindCounter:
		b = strconv.AppendUint(append(b, ' '), uint64(e.Value), 10)
	default:
		b = strconv.AppendFloat(append(b, ' '), e.Value, 'g', -1, 64)
	}
	return append(b, '\n')
}

// Text renders the snapshot one metric per line ("key value"),
// deterministically, into one buffer of exactly the text's size.
func (s *Snapshot) Text() string {
	var line []byte
	n := 0
	for i := range s.Entries {
		line = appendLine(line[:0], &s.Entries[i])
		n += len(line)
	}
	var b strings.Builder
	b.Grow(n)
	for i := range s.Entries {
		line = appendLine(line[:0], &s.Entries[i])
		b.Write(line)
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
