package experiments

// Determinism matrix: every scenario with a gate run, at its gate
// length, must render byte-identical artifacts
//
//   - run twice at shards=1 with flight recorders and the flow tracer
//     attached (Retain vetoes packet recycling, the pre-pool allocation
//     path): the registry snapshots, the event timelines, the per-flow
//     reports, the kernels' event counts and clocks, and the rendering;
//   - traced at shards=4, in the canonical timeline order (At, Node,
//     Seq), which is partition-independent, unlike the arrival-ordered
//     rendering above; tracing forces the shard windows sequential;
//   - bare (packet pool active) at shards=1 twice and at shards=4 twice:
//     the rendering and the registry snapshots. Untraced, shards=4
//     windows run on real worker goroutines, so CI runs this file under
//     -race to check the barrier memory model.
//
// Pooled items and packets, ring-buffered queues and batched drain
// loops are invisible as long as the (timestamp, seq) fire order is
// untouched; this turns any pooling- or partition-induced
// nondeterminism (an aliased recycled packet, a reordered same-instant
// event) into a diff instead of a subtly wrong figure.
//
// The shards=1 comparisons of the four incident scenarios also stand as
// their own Test*SeedDeterminism. Those compare the matrix's runs
// rather than simulating them again.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"rocesim/internal/flighttrace"
	"rocesim/internal/sim"
	"rocesim/internal/telemetry"
)

// observed collects the kernels of a run and, when traced, a flight
// recorder on every trace bus of each and a flow tracer on its own bus,
// plus the auditor when there is one.
type observed struct {
	traced  bool
	aud     *Audit
	kernels []*sim.Kernel
	recs    []*flighttrace.Recorder
	tracers []*flighttrace.FlowTracer
}

func (c *observed) observe(k *sim.Kernel) {
	c.kernels = append(c.kernels, k)
	if c.aud != nil {
		c.aud.Observe(k)
	}
	if !c.traced {
		return
	}
	rec := flighttrace.NewRecorder(4096)
	for _, bus := range k.TraceBuses() {
		rec.Attach(bus, telemetry.EvAll)
	}
	c.recs = append(c.recs, rec)
	c.tracers = append(c.tracers, flighttrace.NewFlowTracer(0).Attach(k.Trace()))
}

// render runs the scenario's gate run once and renders what it
// observed twice: canonical is partition-independent; full adds what
// only a shards=1 run reproduces (arrival-ordered timelines, flow
// reports, event counts and clocks).
func render(s *Scenario, shards int, traced bool, aud *Audit) (canonical, full string, err error) {
	c := observed{traced: traced, aud: aud}
	o := Options{Shards: shards}
	if s.Has&HasObserve != 0 {
		o.Observe = c.observe
	}
	res, err := s.RunGate(o)
	if err != nil {
		return "", "", err
	}
	var cb, fb bytes.Buffer
	for _, b := range []*bytes.Buffer{&cb, &fb} {
		b.WriteString(res.Text)
	}
	for i, k := range c.kernels {
		snap := k.Metrics().Snapshot().Text()
		cb.WriteString(snap)
		fb.WriteString(snap)
		if !traced {
			continue
		}
		if err := c.recs[i].WriteCanonicalText(&cb); err != nil {
			return "", "", err
		}
		if err := c.recs[i].WriteText(&fb); err != nil {
			return "", "", err
		}
		if err := c.tracers[i].WriteReport(&fb); err != nil {
			return "", "", err
		}
		fmt.Fprintf(&fb, "fired=%d now=%d\n", k.EventsFired(), k.Now())
	}
	return cb.String(), fb.String(), nil
}

// gateRun names one of the runs the gates compare: rep tells apart two
// runs of the same kind, which must be simulated independently.
type gateRun struct {
	scenario string
	shards   int
	traced   bool
	rep      int
}

type rendering struct {
	once            sync.Once
	canonical, full string
	err             error
}

// renderings simulates each gateRun once per test binary: the seed
// tests and the matrix compare the same runs, and TestAuditGates hands
// over its traced shards=1 run as rep 0 (the auditor only reads the
// trace).
var renderings sync.Map // gateRun → *rendering

func rendered(t *testing.T, s *Scenario, shards int, traced bool, rep int) (canonical, full string) {
	t.Helper()
	v, _ := renderings.LoadOrStore(gateRun{s.Name, shards, traced, rep}, new(rendering))
	r := v.(*rendering)
	r.once.Do(func() { r.canonical, r.full, r.err = render(s, shards, traced, nil) })
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.canonical, r.full
}

// remember records a traced shards=1 rendering as rep 0, unless that
// run was already rendered.
func remember(s *Scenario, canonical, full string) {
	r := &rendering{canonical: canonical, full: full}
	r.once.Do(func() {})
	renderings.LoadOrStore(gateRun{s.Name, 1, true, 0}, r)
}

// seedTwice compares two shards=1 runs of the scenario from the same
// seed: traced (every rendering) where it takes an observer, and bare.
func seedTwice(t *testing.T, s *Scenario) {
	t.Helper()
	if s.Has&HasObserve != 0 {
		_, first := rendered(t, s, 1, true, 0)
		_, again := rendered(t, s, 1, true, 1)
		diffAt(t, "traced shards=1, run 2 vs run 1", first, again)
	}
	base, _ := rendered(t, s, 1, false, 0)
	again, _ := rendered(t, s, 1, false, 1)
	diffAt(t, "bare shards=1, run 2 vs run 1", base, again)
}

func TestStormSeedDeterminism(t *testing.T) {
	t.Parallel()
	seedTwice(t, Lookup("storm"))
}

func TestDeadlockSeedDeterminism(t *testing.T) {
	t.Parallel()
	seedTwice(t, Lookup("deadlock"))
}

func TestAlphaSeedDeterminism(t *testing.T) {
	t.Parallel()
	seedTwice(t, Lookup("incident"))
}

func TestLivelockSeedDeterminism(t *testing.T) {
	t.Parallel()
	seedTwice(t, Lookup("livelock"))
}

// TestShardDeterminismMatrix makes every comparison of the header for
// every scenario with a gate run. Its subtests are named after the
// scenarios' experiments: the Figure 10 incident runs RunAlpha.
func TestShardDeterminismMatrix(t *testing.T) {
	for i := range Scenarios {
		s := &Scenarios[i]
		if s.Gate == nil {
			continue
		}
		name := s.Name
		if name == "incident" {
			name = "alpha"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			seedTwice(t, s)
			if s.Has&HasObserve != 0 {
				canonical, _ := rendered(t, s, 1, true, 0)
				sharded, _ := rendered(t, s, 4, true, 0)
				diffAt(t, "traced shards=4 vs shards=1", canonical, sharded)
			}
			base, _ := rendered(t, s, 1, false, 0)
			for rep := 0; rep < 2; rep++ {
				got, _ := rendered(t, s, 4, false, rep)
				diffAt(t, fmt.Sprintf("bare shards=4 run %d vs shards=1", rep+1), base, got)
			}
		})
	}
}

// TestShardCountInvariance sweeps awkward shard counts (odd,
// non-power-of-two) on the cheapest gate run, Figure 7's: the
// partitioning must never leak into results.
func TestShardCountInvariance(t *testing.T) {
	s := Lookup("fig7")
	base, _ := rendered(t, s, 1, false, 0)
	for _, n := range []int{2, 3, 5} {
		got, _ := rendered(t, s, n, false, 0)
		diffAt(t, fmt.Sprintf("fig7 shards=%d vs shards=1", n), base, got)
	}
}

// diffAt fails on the first differing line of two renderings.
func diffAt(t *testing.T, what, want, got string) {
	t.Helper()
	if got == want {
		return
	}
	wl, gl := bytes.Split([]byte(want), []byte("\n")), bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("%s: diverge at line %d:\n  want: %s\n  got:  %s", what, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("%s: renderings differ in length: %d vs %d lines", what, len(wl), len(gl))
}
