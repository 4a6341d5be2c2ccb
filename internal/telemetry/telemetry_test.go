package telemetry

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rocesim/internal/simtime"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tor-0/drops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := 7.5
	r.Gauge("tor-0/depth", func() float64 { return g })
	h := r.Histogram("pingmesh/rtt_ps")
	h.Observe(100)
	h.Observe(200)

	s := r.Snapshot()
	if got := s.Counter("tor-0/drops"); got != 5 {
		t.Fatalf("snapshot counter = %d, want 5", got)
	}
	if got := s.Value("tor-0/depth"); got != 7.5 {
		t.Fatalf("snapshot gauge = %g, want 7.5", got)
	}
	e, ok := s.Get("pingmesh/rtt_ps")
	if !ok || e.Kind != KindHistogram || e.Hist == nil || e.Hist.Count != 2 {
		t.Fatalf("histogram entry = %+v ok=%v", e, ok)
	}
	if e.Hist.Mean != 150 {
		t.Fatalf("histogram mean = %g, want 150", e.Hist.Mean)
	}
}

func TestReaderMatchesSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tor-0/drops", L("port", 2))
	g := 1.5
	r.Gauge("tor-0/depth", func() float64 { return g })
	h := r.Histogram("pingmesh/rtt_ps")
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	readers := map[string]Reader{}
	for _, e := range r.Snapshot().Entries {
		rd, ok := r.Reader(e.Key)
		if !ok {
			t.Fatalf("no reader for %q", e.Key)
		}
		readers[e.Key] = rd
	}
	// Readers resolved once follow later updates.
	c.Add(3)
	g = 9
	h.Observe(10)
	h.Observe(20)
	for _, e := range r.Snapshot().Entries {
		if got := readers[e.Key].Value(); got != e.Value {
			t.Fatalf("%s: reader %g, snapshot %g", e.Key, got, e.Value)
		}
	}
	if _, ok := r.Reader("tor-0/drops"); ok {
		t.Fatal("reader must take the canonical labeled key")
	}
	var nr *Registry
	if rd, ok := nr.Reader("x"); ok || rd.Value() != 0 || nr.Len() != 0 {
		t.Fatal("nil registry must read as empty")
	}
}

func TestLabelKeysCanonical(t *testing.T) {
	r := NewRegistry()
	r.Counter("tor-0/pause_tx", L("pri", 3), L("port", 1)).Add(7)
	want := "tor-0/pause_tx{port=1,pri=3}" // labels sorted by key
	if es := r.Snapshot().Entries; len(es) != 1 || es[0].Key != want || es[0].Value != 7 {
		t.Fatalf("entries = %+v, want one %q = 7", es, want)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("ignored")
	c.Inc() // no-op, no panic
	c.Add(3)
	if c.Value() != 0 {
		t.Fatalf("nil counter leaked state: %d", c.Value())
	}
	r.Gauge("ignored", func() float64 { return 1 })
	if h := r.Histogram("ignored"); h == nil {
		t.Fatal("nil registry must still hand out a working histogram")
	}
	if s := r.Snapshot(); len(s.Entries) != 0 {
		t.Fatalf("nil registry snapshot has %d entries", len(s.Entries))
	}

	var b *TraceBus
	if b.Active() {
		t.Fatal("nil bus reports active")
	}
}

func TestSnapshotDeterministicAcrossOrder(t *testing.T) {
	// Two registries populated in different orders must render the same
	// bytes: snapshots sort by key.
	a, b := NewRegistry(), NewRegistry()
	a.Counter("b/x").Add(2)
	a.Counter("a/x").Add(1)
	b.Counter("a/x").Add(1)
	b.Counter("b/x").Add(2)
	if at, bt := a.Snapshot().Text(), b.Snapshot().Text(); at != bt {
		t.Fatalf("order-dependent snapshots:\n%s\nvs\n%s", at, bt)
	}
	aj, _ := a.Snapshot().JSON()
	bj, _ := b.Snapshot().JSON()
	if string(aj) != string(bj) {
		t.Fatal("order-dependent JSON snapshots")
	}
}

func TestSnapshotAggregation(t *testing.T) {
	r := NewRegistry()
	r.Counter("tor-0/pause_tx").Add(3)
	r.Counter("tor-1/pause_tx").Add(4)
	r.Counter("tor-0/drops").Add(9)
	s := r.Snapshot()
	if got := s.SumSuffix("/pause_tx"); got != 7 {
		t.Fatalf("SumSuffix = %g, want 7", got)
	}
	f := s.Filter(func(e Entry) bool { return strings.HasSuffix(e.Key, "/drops") })
	if len(f.Entries) != 1 || f.Entries[0].Value != 9 {
		t.Fatalf("Filter = %+v", f.Entries)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get found a missing key")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Histogram("h").Observe(5)
	raw, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("round-trip lost entries: %d", len(entries))
	}
}

func TestTraceBusMaskFilterClose(t *testing.T) {
	clock := simtime.Time(0)
	b := NewTraceBus(func() simtime.Time { return clock })
	if b.Active() {
		t.Fatal("empty bus reports active")
	}

	var drops, all int
	sd := b.Subscribe(EvDrop.Mask(), nil, func(Event) { drops++ })
	sa := b.Subscribe(EvAll, nil, func(ev Event) {
		all++
		if ev.At != clock {
			t.Fatalf("event not stamped: %v vs %v", ev.At, clock)
		}
	})
	if !b.Active() {
		t.Fatal("bus with subscribers reports inactive")
	}

	clock = 42
	b.Emit(Event{Type: EvDrop, Node: "tor-0"})
	b.Emit(Event{Type: EvEnqueue, Node: "tor-0"})
	if drops != 1 || all != 2 {
		t.Fatalf("drops=%d all=%d, want 1/2", drops, all)
	}

	// Filtered subscription only sees its node.
	var filtered int
	sf := b.Subscribe(EvAll, func(ev *Event) bool { return ev.Node == "tor-1" },
		func(Event) { filtered++ })
	b.Emit(Event{Type: EvDrop, Node: "tor-0"})
	b.Emit(Event{Type: EvDrop, Node: "tor-1"})
	if filtered != 1 {
		t.Fatalf("filtered=%d, want 1", filtered)
	}

	sd.Close()
	sd.Close() // double close is a no-op
	sf.Close()
	b.Emit(Event{Type: EvDrop})
	if drops != 3 {
		// sd saw the two pre-close drops plus none after.
		t.Fatalf("closed subscription still firing: drops=%d", drops)
	}
	sa.Close()
	if b.Active() {
		t.Fatal("fully unsubscribed bus reports active")
	}
}

func TestEventTypeStrings(t *testing.T) {
	for ty := EventType(0); ty < numEventTypes; ty++ {
		if ty.String() == "unknown" {
			t.Fatalf("event type %d has no name", ty)
		}
	}
}

// TestEmitSiteNoSubscriberCost asserts — not just measures — that the
// guarded emission pattern every hot path uses costs nothing when
// tracing is off: no allocations with a nil bus, none with a wired bus
// that has no subscribers, and Active() itself must stay false so the
// Event literal is never even constructed. BenchmarkEmitDisabled and
// BenchmarkEmitNoSubscribers put numbers on the same bar (recorded via
// `make bench-json PKG=./internal/telemetry`).
func TestEmitSiteNoSubscriberCost(t *testing.T) {
	var nilBus *TraceBus
	if n := testing.AllocsPerRun(1000, func() {
		if nilBus.Active() {
			nilBus.Emit(Event{Type: EvDrop})
		}
	}); n != 0 {
		t.Fatalf("nil-bus emission site allocates %v per run, want 0", n)
	}

	bus := NewTraceBus(func() simtime.Time { return 0 })
	if bus.Active() {
		t.Fatal("bus with no subscribers reports active")
	}
	if n := testing.AllocsPerRun(1000, func() {
		if bus.Active() {
			bus.Emit(Event{Type: EvDrop})
		}
	}); n != 0 {
		t.Fatalf("no-subscriber emission site allocates %v per run, want 0", n)
	}

	// Subscribing must flip the gate; dropping the subscription must
	// restore the free path.
	sub := bus.Subscribe(EvDrop.Mask(), nil, func(Event) {})
	if !bus.Active() {
		t.Fatal("subscribed bus reports inactive")
	}
	sub.Close()
	if n := testing.AllocsPerRun(1000, func() {
		if bus.Wants(EvEnqueue.Mask()) {
			bus.Emit(Event{Type: EvEnqueue})
		}
	}); n != 0 {
		t.Fatalf("masked-out emission site allocates %v per run, want 0", n)
	}
}

// TestWantsMaskGating checks the per-type gate hot emission sites use:
// a narrow subscription (the PFC analyzer listening only to pause
// edges) must not open the gate for unrelated high-frequency types.
func TestWantsMaskGating(t *testing.T) {
	var nilBus *TraceBus
	if nilBus.Wants(EvAll) {
		t.Fatal("nil bus wants events")
	}
	bus := NewTraceBus(func() simtime.Time { return 0 })
	if bus.Wants(EvAll) {
		t.Fatal("unsubscribed bus wants events")
	}
	pause := bus.Subscribe(EvPauseXOFF.Mask()|EvPauseXON.Mask(), nil, func(Event) {})
	if !bus.Wants(EvPauseXOFF.Mask()) || !bus.Wants(EvPauseXON.Mask()) {
		t.Fatal("subscribed types not wanted")
	}
	if bus.Wants(EvEnqueue.Mask()) || bus.Wants(EvDequeue.Mask()) {
		t.Fatal("pause-only subscription opens the enqueue/dequeue gate")
	}
	all := bus.Subscribe(EvAll, nil, func(Event) {})
	if !bus.Wants(EvEnqueue.Mask()) {
		t.Fatal("EvAll subscriber not reflected in the union")
	}
	all.Close()
	if bus.Wants(EvEnqueue.Mask()) {
		t.Fatal("union mask not rebuilt after unsubscribe")
	}
	if !bus.Wants(EvPauseXOFF.Mask()) {
		t.Fatal("remaining subscription lost from the union")
	}
	pause.Close()
	if bus.Wants(EvAll) || bus.Active() {
		t.Fatal("fully unsubscribed bus still wants events")
	}
	if n := testing.AllocsPerRun(1000, func() {
		if bus.Active() {
			bus.Emit(Event{Type: EvDrop})
		}
	}); n != 0 {
		t.Fatalf("post-unsubscribe emission site allocates %v per run, want 0", n)
	}
}

// BenchmarkEmitDisabled measures the cost a trace emission site pays
// when nobody is listening — the acceptance bar is "one nil check".
func BenchmarkEmitDisabled(b *testing.B) {
	var bus *TraceBus // components hold nil until the kernel wires one
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bus.Active() {
			bus.Emit(Event{Type: EvDrop})
		} else {
			n++
		}
	}
	_ = n
}

// BenchmarkEmitNoSubscribers is the same bar for a wired bus with zero
// subscribers (the common simulation configuration).
func BenchmarkEmitNoSubscribers(b *testing.B) {
	bus := NewTraceBus(func() simtime.Time { return 0 })
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bus.Active() {
			bus.Emit(Event{Type: EvDrop})
		} else {
			n++
		}
	}
	_ = n
}

// BenchmarkCounterInc keeps registry counters honest against the plain
// uint64 fields they replaced.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench/ctr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// TestTextMatchesFmt pins Snapshot.Text to the fmt.Fprintf renderer it
// replaced, over counters near 2^64, gauges at the floats whose shortest
// form is easiest to get wrong, and empty and filled histograms.
func TestTextMatchesFmt(t *testing.T) {
	r := NewRegistry()
	for i, v := range []uint64{0, 1, 1<<53 + 1, 1 << 63, math.MaxUint64 - 1024, math.MaxUint64 - 1, math.MaxUint64} {
		r.Counter("c", L("i", i)).Add(v)
	}
	gauges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -5e-324,
		1e21, 1e20, 999999, 1e6, 1<<53 + 1, 0.1, 1e-4, 1e-5, 123456.789, -2.5, math.MaxFloat64, math.SmallestNonzeroFloat64 * 3}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		gauges = append(gauges, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*1e12)
	}
	for i, v := range gauges {
		v := v
		r.Gauge("g", func() float64 { return v }, L("i", i))
	}
	r.Histogram("h/empty")
	h, sq := r.Histogram("h/filled"), r.Histogram("h/squares")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1.37e3)
		sq.Observe(float64(i*i) / 7)
	}
	s := r.Snapshot()
	if got, want := s.Text(), fmtText(s); got != want {
		t.Fatalf("Text differs from fmt:\n%s\nwant\n%s", got, want)
	}
	if got := (&Snapshot{}).Text(); got != "" {
		t.Fatalf("empty snapshot text = %q", got)
	}
}

// TestBlocksMatchSingles checks that a block publishes exactly what one
// registration per member did: the same keys, values, Readers and Len,
// and duplicate panics across both paths.
func TestBlocksMatchSingles(t *testing.T) {
	table := []Metric{
		{Suffix: "/pause_time_ps", Labels: []Label{{"pri", "3"}}},
		{Suffix: "/pause_time_ps", Labels: []Label{{"pri", "4"}}},
		{Suffix: "/pause_engaged"},
	}
	counters := []Metric{{Suffix: "/rx_frames"}, {Suffix: "/pause_rx"}}
	b, s := NewRegistry(), NewRegistry()
	c := b.Counters("tor-0", counters, L("port", 1))
	c[0].Add(3)
	c[1].Add(4)
	s.Counter("tor-0/rx_frames", L("port", 1)).Add(3)
	s.Counter("tor-0/pause_rx", L("port", 1)).Add(4)
	b.Gauges("tor-0", table, 0b101, func(i int) float64 { return float64(10 + i) }, L("port", 1))
	s.Gauge("tor-0/pause_time_ps", func() float64 { return 10 }, L("port", 1), L("pri", 3))
	s.Gauge("tor-0/pause_engaged", func() float64 { return 12 }, L("port", 1))
	if bt, st := b.Snapshot().Text(), s.Snapshot().Text(); bt != st || b.Len() != s.Len() {
		t.Fatalf("blocks publish\n%s(Len %d)\nsingles\n%s(Len %d)", bt, b.Len(), st, s.Len())
	}
	for _, e := range s.Snapshot().Entries {
		rd, ok := b.Reader(e.Key)
		if !ok || rd.Value() != e.Value {
			t.Fatalf("%s: reader %v ok=%v, want %g", e.Key, rd.Value(), ok, e.Value)
		}
	}
	if !b.Has("tor-0/pause_time_ps", L("pri", 3), L("port", 1)) || b.Has("tor-0/pause_time_ps", L("pri", 4), L("port", 1)) {
		t.Fatal("Has does not follow the member set")
	}
	for name, register := range map[string]func(){
		"single after block": func() { b.Counter("tor-0/pause_rx", L("port", 1)) },
		"block after single": func() { s.Counters("tor-0", counters, L("port", 1)) },
		"block after block":  func() { b.Gauges("tor-0", table, 0b100, func(int) float64 { return 0 }, L("port", 1)) },
	} {
		if msg := catch(register); !strings.Contains(msg, "telemetry: duplicate metric \"tor-0/") {
			t.Fatalf("%s: panic %q", name, msg)
		}
	}
	var nr *Registry
	if nc := nr.Counters("x", counters); len(nc) != 2 || nr.Len() != 0 {
		t.Fatal("nil registry must hand out an unregistered slab")
	}
	nr.Gauges("x", table, 1, func(int) float64 { return 0 })
	if len(nr.Snapshot().Entries) != 0 {
		t.Fatal("nil registry published a block")
	}
}
