package monitor

import (
	"errors"
	"strings"
	"testing"

	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/topology"
)

func TestPingmeshScopesAndRTT(t *testing.T) {
	k := sim.NewKernel(1)
	net, err := topology.Build(k, topology.Fig7Spec(2))
	if err != nil {
		t.Fatal(err)
	}
	pm := NewPingmesh(k, DefaultPingmesh())
	// Same ToR, same podset (different ToRs), cross-podset.
	pm.AddPair(net, net.Server(0, 0, 0), net.Server(0, 0, 1))
	pm.AddPair(net, net.Server(0, 1, 0), net.Server(0, 2, 0))
	pm.AddPair(net, net.Server(0, 3, 0), net.Server(1, 3, 0))
	pm.Start()
	k.RunUntil(simtime.Time(500 * simtime.Millisecond))

	for _, sc := range []ProbeScope{ScopeToR, ScopePodset, ScopeDC} {
		if pm.RTT[sc].Count() < 40 {
			t.Fatalf("%v: only %d samples", sc, pm.RTT[sc].Count())
		}
		if pm.Failures[sc] != 0 {
			t.Fatalf("%v: %d failures on a healthy fabric", sc, pm.Failures[sc])
		}
	}
	// RTT must grow with scope: ToR < podset < DC (300m spine cables).
	tor := pm.RTT[ScopeToR].Quantile(0.5)
	pod := pm.RTT[ScopePodset].Quantile(0.5)
	dc := pm.RTT[ScopeDC].Quantile(0.5)
	if !(tor < pod && pod < dc) {
		t.Fatalf("scope ordering broken: tor=%v pod=%v dc=%v",
			simtime.Duration(tor), simtime.Duration(pod), simtime.Duration(dc))
	}
	if !strings.Contains(pm.Report(), "pingmesh") {
		t.Fatal("report")
	}
}

func TestPingmeshDetectsDeadServer(t *testing.T) {
	k := sim.NewKernel(2)
	net, err := topology.Build(k, topology.RackSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	pm := NewPingmesh(k, DefaultPingmesh())
	pm.AddPair(net, net.Server(0, 0, 0), net.Server(0, 0, 1))
	pm.AddPair(net, net.Server(0, 0, 2), net.Server(0, 0, 3))
	// Server 3 dies: its NIC pipeline stops (probes never answered).
	net.Server(0, 0, 3).NIC.SetMalfunction(true)
	pm.Start()
	k.RunUntil(simtime.Time(time1s()))
	if pm.Failures[ScopeToR] == 0 {
		t.Fatal("probes to a dead server must fail")
	}
	if pm.RTT[ScopeToR].Count() == 0 {
		t.Fatal("healthy pair must keep answering")
	}
}

func time1s() simtime.Duration { return simtime.Second }

// TestPingmeshOnResult: the observation hook sees every settled probe —
// answers with their RTT and endpoint identity, timeouts with ok=false —
// matching the histogram/failure counters exactly.
func TestPingmeshOnResult(t *testing.T) {
	k := sim.NewKernel(2)
	net, err := topology.Build(k, topology.RackSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	pm := NewPingmesh(k, DefaultPingmesh())
	a, b := net.Server(0, 0, 0), net.Server(0, 0, 1)
	pm.AddPair(net, a, b)
	pm.AddPair(net, net.Server(0, 0, 2), net.Server(0, 0, 3))
	net.Server(0, 0, 3).NIC.SetMalfunction(true)
	var oks, fails uint64
	pm.OnResult = func(sa, sb *topology.Server, scope ProbeScope, rtt simtime.Duration, ok bool) {
		if scope != ScopeToR {
			t.Fatalf("scope = %v, want tor", scope)
		}
		if ok {
			oks++
			if sa != a || sb != b || rtt <= 0 {
				t.Fatalf("answered probe misattributed: %s->%s rtt=%v", sa.NIC.Name(), sb.NIC.Name(), rtt)
			}
		} else {
			fails++
			if rtt != pm.cfg.Timeout {
				t.Fatalf("timeout rtt = %v, want %v", rtt, pm.cfg.Timeout)
			}
		}
	}
	pm.Start()
	k.RunUntil(simtime.Time(time1s()))
	if oks != pm.RTT[ScopeToR].Count() || oks == 0 {
		t.Fatalf("hook saw %d answers, histogram %d", oks, pm.RTT[ScopeToR].Count())
	}
	if fails != pm.Failures[ScopeToR] || fails == 0 {
		t.Fatalf("hook saw %d timeouts, counter %d", fails, pm.Failures[ScopeToR])
	}
}

func TestConfigDriftDetection(t *testing.T) {
	k := sim.NewKernel(4)
	net, err := topology.Build(k, topology.RackSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	sw := net.Tors[0]
	cs := NewConfigStore()
	cs.RegisterReader(sw.Name(), SwitchConfigReader(sw))
	// Desired matches running: no drift.
	cs.SetDesired(sw.Name(), map[string]string{"alpha": "1/16", "dynamic": "true"})
	if drifts := cs.Check(); len(drifts) != 0 {
		t.Fatalf("unexpected drift: %v", drifts)
	}
	// The 07/12/2015 incident: operator expects 1/16, device runs 1/64.
	cs.SetDesired(sw.Name(), map[string]string{"alpha": "1/64"})
	drifts := cs.Check()
	if len(drifts) != 1 || drifts[0].Key != "alpha" {
		t.Fatalf("drift detection: %v", drifts)
	}
	if !strings.Contains(drifts[0].String(), "alpha") {
		t.Fatal("drift string")
	}
	// Unreadable device: every desired key drifts.
	cs.SetDesired("ghost", map[string]string{"alpha": "1/16"})
	if len(cs.Check()) != 2 {
		t.Fatal("missing reader must surface as drift")
	}
}

// slowPingPong answers every query after a fixed delay — long enough to
// outlive the probe timeout when the test wants a late answer.
type slowPingPong struct {
	k     *sim.Kernel
	delay simtime.Duration
}

func (f *slowPingPong) Query(qsize, rsize int, done func(simtime.Duration)) {
	d := f.delay
	f.k.After(d, func() { done(d) })
}

// TestPingmeshTimeoutSettlesProbe covers the probe-timeout path: a
// probe that times out counts exactly one failure, and the answer
// arriving *after* the timeout must neither record an RTT sample nor
// disturb the next probe.
func TestPingmeshTimeoutSettlesProbe(t *testing.T) {
	k := sim.NewKernel(9)
	pm := NewPingmesh(k, PingmeshConfig{
		ProbeSize: 512,
		Interval:  50 * simtime.Millisecond,
		Timeout:   simtime.Millisecond,
	})
	// Answers arrive at 10ms — well past the 1ms timeout.
	pm.add(&meshPair{
		pp:    &slowPingPong{k: k, delay: 10 * simtime.Millisecond},
		scope: ScopeToR,
	})
	pm.Start()

	// First probe at t=0, timeout at 1ms, late answer at 10ms.
	k.RunUntil(simtime.Time(40 * simtime.Millisecond))
	if pm.Failures[ScopeToR] != 1 {
		t.Fatalf("failures = %d, want 1", pm.Failures[ScopeToR])
	}
	if n := pm.RTT[ScopeToR].Count(); n != 0 {
		t.Fatalf("late answer recorded %d RTT samples, want 0", n)
	}
	if pm.pairs[0].outstanding {
		t.Fatal("probe not settled")
	}
	// Second probe at 50ms must go out (outstanding was cleared by the
	// timeout, not wedged by the late answer).
	k.RunUntil(simtime.Time(90 * simtime.Millisecond))
	if pm.Probes != 2 {
		t.Fatalf("probes = %d, want 2", pm.Probes)
	}
	if pm.Failures[ScopeToR] != 2 {
		t.Fatalf("failures = %d, want 2", pm.Failures[ScopeToR])
	}
}

// TestUnmanagedRunningDeviceDrifts pins the set-symmetry of the drift
// check: a device that is running (has a reader) but was never given —
// or was deleted from — the desired set must surface as drift, one
// entry per running key with an empty Want. Before the fix Check
// iterated only the desired side, so such a device could never drift;
// that is exactly how the §6.2 switch model slipped into the fleet.
func TestUnmanagedRunningDeviceDrifts(t *testing.T) {
	k := sim.NewKernel(9)
	net, err := topology.Build(k, topology.RackSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	sw := net.Tors[0]
	cs := NewConfigStore()
	cs.RegisterReader(sw.Name(), SwitchConfigReader(sw))
	drifts := cs.Check()
	if len(drifts) != 8 {
		t.Fatalf("unmanaged running device: got %d drifts, want one per running key (8): %v",
			len(drifts), drifts)
	}
	for _, d := range drifts {
		if d.Want != "" || d.Got == "" {
			t.Fatalf("unmanaged drift should carry Want=\"\" and the running value: %v", d)
		}
	}
	// Managing the device clears it...
	cs.SetDesired(sw.Name(), cs.Running(sw.Name()))
	if drifts := cs.Check(); len(drifts) != 0 {
		t.Fatalf("managed, matching device still drifts: %v", drifts)
	}
	// ...and deleting it from the desired set re-opens the drift.
	cs.DeleteDesired(sw.Name())
	if drifts := cs.Check(); len(drifts) != 8 {
		t.Fatalf("deleted desired: got %d drifts, want 8", len(drifts))
	}
}

// TestDriftCarriesKernelTime pins the At stamp and the (at, device, key)
// order: drifts from one check share the checking clock's time and sort
// by device then key.
func TestDriftCarriesKernelTime(t *testing.T) {
	k := sim.NewKernel(9)
	net, err := topology.Build(k, topology.RackSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	cs := NewConfigStore()
	cs.SetClock(k.Now)
	cs.RegisterReader("b-dev", SwitchConfigReader(net.Tors[0]))
	cs.SetDesired("b-dev", map[string]string{"ecn": "maybe", "alpha": "1/64"})
	cs.SetDesired("a-dev", map[string]string{"alpha": "1/16"})
	var got []Drift
	k.At(simtime.Time(3*simtime.Millisecond), func() { got = cs.Check() })
	k.RunUntil(simtime.Time(5 * simtime.Millisecond))
	want := []struct{ dev, key string }{
		{"a-dev", "alpha"}, {"b-dev", "alpha"}, {"b-dev", "ecn"},
	}
	if len(got) != len(want) {
		t.Fatalf("drifts = %v, want %d", got, len(want))
	}
	for i, w := range want {
		d := got[i]
		if d.Device != w.dev || d.Key != w.key {
			t.Errorf("drift[%d] = %s/%s, want %s/%s", i, d.Device, d.Key, w.dev, w.key)
		}
		if d.At != simtime.Time(3*simtime.Millisecond) {
			t.Errorf("drift[%d].At = %v, want the checking kernel's 3ms", i, d.At)
		}
	}
	if !strings.Contains(got[0].String(), "3ms") && !strings.Contains(got[0].String(), "3.0ms") {
		t.Errorf("drift string lacks the timestamp: %s", got[0])
	}
}

// TestSwitchConfigWriter exercises the actuation path: writable keys
// reach the running switch, reboot-only keys return ErrReadOnly, and a
// device without a writer reports ErrNoWriter.
func TestSwitchConfigWriter(t *testing.T) {
	k := sim.NewKernel(9)
	net, err := topology.Build(k, topology.RackSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	sw := net.Tors[0]
	cs := NewConfigStore()
	cs.RegisterReader(sw.Name(), SwitchConfigReader(sw))
	cs.RegisterWriter(sw.Name(), SwitchConfigWriter(sw))

	if err := cs.Write(sw.Name(), "alpha", "1/32"); err != nil {
		t.Fatal(err)
	}
	if got := sw.Config().Buffer.Alpha; got != 1.0/32 {
		t.Fatalf("alpha = %v after write, want 1/32", got)
	}
	if sw.MMU().Config().Alpha != 1.0/32 {
		t.Fatal("write must reach the MMU, not just the declared config")
	}
	if err := cs.Write(sw.Name(), "ecn", "false"); err != nil {
		t.Fatal(err)
	}
	if sw.Config().ECN.Enabled {
		t.Fatal("ecn write did not land")
	}
	if cs.Running(sw.Name())["ecn"] != "false" {
		t.Fatal("reader does not see the written ecn state")
	}
	if err := cs.Write(sw.Name(), "headroom", "9000"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("headroom write: %v, want ErrReadOnly", err)
	}
	if err := cs.Write(sw.Name(), "mtu", "9216"); err == nil {
		t.Fatal("unknown key must error")
	}
	if err := cs.Write(sw.Name(), "alpha", "zero"); err == nil {
		t.Fatal("unparsable alpha must error")
	}
	if err := cs.Write("ghost", "alpha", "1/16"); !errors.Is(err, ErrNoWriter) {
		t.Fatalf("ghost write: %v, want ErrNoWriter", err)
	}
}
