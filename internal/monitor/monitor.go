// Package monitor implements two of the management and monitoring
// systems of Section 5, which the paper calls indispensable: RDMA
// Pingmesh (active latency probing at ToR/podset/DC scope) and
// configuration management with desired-vs-running drift detection (the
// α misconfiguration of Section 6.2 is exactly such a drift). The third,
// counter collection into time series and alerting on them (the raw
// material of Figures 9 and 10), is the health plane's scraper and SLO
// engine (internal/health).
package monitor

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rocesim/internal/fabric"
	"rocesim/internal/nic"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/stats"
	"rocesim/internal/topology"
	"rocesim/internal/workload"
)

// ProbeScope classifies a Pingmesh pair by how far apart the endpoints
// are.
type ProbeScope int

// Pingmesh scopes (the paper probes at ToR, Podset and DC level).
const (
	ScopeToR ProbeScope = iota
	ScopePodset
	ScopeDC
)

// String names the scope.
func (s ProbeScope) String() string {
	switch s {
	case ScopeToR:
		return "tor"
	case ScopePodset:
		return "podset"
	default:
		return "dc"
	}
}

// PingmeshConfig tunes the prober.
type PingmeshConfig struct {
	// ProbeSize is the payload of each probe (512 bytes in the paper).
	ProbeSize int
	// Interval is the per-pair probing period.
	Interval simtime.Duration
	// Timeout marks a probe failed (an error code in the paper's logs).
	Timeout simtime.Duration
}

// DefaultPingmesh returns the paper's probe settings.
func DefaultPingmesh() PingmeshConfig {
	return PingmeshConfig{
		ProbeSize: 512,
		Interval:  10 * simtime.Millisecond,
		Timeout:   100 * simtime.Millisecond,
	}
}

// Pingmesh runs RDMA probes across a set of server pairs and aggregates
// RTT histograms per scope.
type Pingmesh struct {
	k   *sim.Kernel
	cfg PingmeshConfig

	RTT      map[ProbeScope]*stats.Histogram // picoseconds
	Failures map[ProbeScope]uint64
	Probes   uint64

	// OnResult, when set, observes every settled probe: ok=true with the
	// measured RTT on an answer, ok=false (rtt=Timeout) on a timeout. The
	// health plane's heatmap and RTT histogram feed off this hook instead of
	// re-probing the fabric. In a sharded run the ok=true call executes
	// on the answering pair's client shard, so the hook must either be
	// nil or touch only state owned by that shard; the health plane
	// therefore runs unsharded.
	OnResult func(a, b *topology.Server, scope ProbeScope, rtt simtime.Duration, ok bool)

	pairs []*meshPair

	// sharded probing: answer callbacks run inside shard windows, so
	// RTTs accumulate into per-shard scratch histograms (one owner per
	// worker) and fold into RTT at the next Report, which runs at a
	// barrier.
	sharded  bool
	perShard []map[ProbeScope]*stats.Histogram
}

type meshPair struct {
	pp    workload.PingPong
	a, b  *topology.Server
	scope ProbeScope
	shard int // client NIC's shard, 0 when unsharded
	// outstanding guards against piling probes onto a stuck path.
	outstanding bool
}

// NewPingmesh builds an empty mesh. Its per-scope RTT histograms are
// published in the kernel's telemetry registry as
// "pingmesh/<scope>/rtt_ps"; when several meshes share one kernel only
// the first owns the registered series, later ones record privately.
func NewPingmesh(k *sim.Kernel, cfg PingmeshConfig) *Pingmesh {
	pm := &Pingmesh{
		k: k, cfg: cfg,
		RTT:      make(map[ProbeScope]*stats.Histogram),
		Failures: make(map[ProbeScope]uint64),
	}
	for _, s := range []ProbeScope{ScopeToR, ScopePodset, ScopeDC} {
		name := "pingmesh/" + s.String() + "/rtt_ps"
		if k.Metrics().Has(name) {
			pm.RTT[s] = stats.NewHistogram()
		} else {
			pm.RTT[s] = k.Metrics().Histogram(name)
		}
	}
	if g := k.Group(); g != nil && g.N() > 1 {
		pm.sharded = true
		pm.perShard = make([]map[ProbeScope]*stats.Histogram, g.N())
		for i := range pm.perShard {
			pm.perShard[i] = map[ProbeScope]*stats.Histogram{
				ScopeToR: stats.NewHistogram(), ScopePodset: stats.NewHistogram(), ScopeDC: stats.NewHistogram(),
			}
		}
	}
	return pm
}

// AddPair registers a probing channel between two servers. Scope is
// derived from the servers' positions.
func (pm *Pingmesh) AddPair(net *topology.Network, a, b *topology.Server) {
	scope := ScopeDC
	switch {
	case a.Podset == b.Podset && a.TorIdx == b.TorIdx:
		scope = ScopeToR
	case a.Podset == b.Podset:
		scope = ScopePodset
	}
	qa, qb := net.QPPair(a, b, nil)
	// RTTs are clocked on the client NIC's kernel: the answer callback
	// runs in that shard's execution context, where the global kernel's
	// clock may be a window behind. Identical to pm.k.Now unsharded.
	ck := a.NIC.Kernel()
	pp := workload.NewRDMAPingPong(qa, qb, ck.Now)
	shard := ck.ShardIndex()
	if shard < 0 {
		shard = 0
	}
	pm.pairs = append(pm.pairs, &meshPair{pp: pp, a: a, b: b, scope: scope, shard: shard})
}

// Start begins probing all registered pairs.
func (pm *Pingmesh) Start() {
	for i, p := range pm.pairs {
		p := p
		// Stagger first probes across the interval.
		offset := pm.cfg.Interval * simtime.Duration(i) / simtime.Duration(len(pm.pairs)+1)
		pm.k.After(offset, func() { pm.probe(p) })
	}
}

func (pm *Pingmesh) probe(p *meshPair) {
	pm.k.After(pm.cfg.Interval, func() { pm.probe(p) })
	if p.outstanding {
		// Previous probe still out: that's a failure-in-progress; skip.
		return
	}
	p.outstanding = true
	pm.Probes++
	// settled flips exactly once, on whichever of answer/timeout comes
	// first; the loser is a no-op. In particular an answer arriving
	// after the timeout already counted the probe failed must not also
	// record its (pathological) RTT.
	settled := false
	timeout := pm.k.After(pm.cfg.Timeout, func() {
		if settled {
			return
		}
		settled = true
		p.outstanding = false
		pm.Failures[p.scope]++
		if pm.OnResult != nil {
			pm.OnResult(p.a, p.b, p.scope, pm.cfg.Timeout, false)
		}
	})
	p.pp.Query(pm.cfg.ProbeSize, pm.cfg.ProbeSize, func(rtt simtime.Duration) {
		if settled {
			return
		}
		settled = true
		p.outstanding = false
		if !pm.sharded {
			// Cancelling saves heap space on the single kernel. In a
			// sharded run this callback executes on the client shard and
			// the timeout lives on the barrier-owned global heap, so the
			// timer is left to fire as a settled no-op instead.
			timeout.Cancel()
		}
		if pm.sharded {
			pm.perShard[p.shard][p.scope].Observe(float64(rtt))
		} else {
			pm.RTT[p.scope].Observe(float64(rtt))
		}
		if pm.OnResult != nil {
			pm.OnResult(p.a, p.b, p.scope, rtt, true)
		}
	})
}

// fold drains the per-shard scratch histograms into the published RTT
// histograms. Callers run at a barrier (after RunUntil returns).
func (pm *Pingmesh) fold() {
	for i, m := range pm.perShard {
		for s, h := range m {
			if h.Count() > 0 {
				pm.RTT[s].Merge(h)
			}
		}
		pm.perShard[i] = map[ProbeScope]*stats.Histogram{
			ScopeToR: stats.NewHistogram(), ScopePodset: stats.NewHistogram(), ScopeDC: stats.NewHistogram(),
		}
	}
}

// Fold publishes the per-shard scratch RTTs into the RTT histograms.
// Callers run it at a barrier (after RunUntil returns) before reading
// RTT directly; Report folds on its own.
func (pm *Pingmesh) Fold() { pm.fold() }

// Report renders a Pingmesh summary.
func (pm *Pingmesh) Report() string {
	pm.fold()
	out := fmt.Sprintf("pingmesh: %d probes\n", pm.Probes)
	for _, s := range []ProbeScope{ScopeToR, ScopePodset, ScopeDC} {
		h := pm.RTT[s]
		if h.Count() == 0 {
			continue
		}
		out += fmt.Sprintf("  %-7s %s failures=%d\n", s, h.Summary(1e6, "us"), pm.Failures[s])
	}
	return out
}

// ConfigStore is the configuration management service of Section 5.1: a
// desired configuration per device, a reader for the running
// configuration, a writer for the keys the management plane may change,
// and a drift checker. The 07/12/2015 incident — a new switch model
// shipping α=1/64 instead of the expected 1/16 — is exactly the class of
// bug it catches.
type ConfigStore struct {
	desired map[string]map[string]string
	readers map[string]func() map[string]string
	writers map[string]func(key, val string) error
	now     func() simtime.Time
}

// NewConfigStore returns an empty store.
func NewConfigStore() *ConfigStore {
	return &ConfigStore{
		desired: make(map[string]map[string]string),
		readers: make(map[string]func() map[string]string),
		writers: make(map[string]func(key, val string) error),
	}
}

// SetClock wires the kernel clock that stamps drifts. Without it drifts
// carry At=0 (the store also works outside a simulation).
func (cs *ConfigStore) SetClock(now func() simtime.Time) { cs.now = now }

// SetDesired records the intended configuration for a device. The map is
// copied, so later caller-side mutation does not alias the store.
func (cs *ConfigStore) SetDesired(device string, cfg map[string]string) {
	cs.desired[device] = copyConfig(cfg)
}

// Desired returns a copy of the device's desired configuration and
// whether the device is managed at all — the capture a rollout journal
// takes before touching the device.
func (cs *ConfigStore) Desired(device string) (map[string]string, bool) {
	cfg, ok := cs.desired[device]
	return copyConfig(cfg), ok
}

// MergeDesired folds kv into the device's desired configuration,
// creating it if the device was unmanaged.
func (cs *ConfigStore) MergeDesired(device string, kv map[string]string) {
	cfg, ok := cs.desired[device]
	if !ok {
		cfg = make(map[string]string, len(kv))
		cs.desired[device] = cfg
	}
	for k, v := range kv {
		cfg[k] = v
	}
}

// DeleteDesired removes the device's desired configuration, returning it
// to the unmanaged state (where every running key is a drift).
func (cs *ConfigStore) DeleteDesired(device string) { delete(cs.desired, device) }

// RegisterReader wires a live configuration reader for a device.
func (cs *ConfigStore) RegisterReader(device string, read func() map[string]string) {
	cs.readers[device] = read
}

// Running reads the device's live configuration (nil without a reader).
func (cs *ConfigStore) Running(device string) map[string]string {
	if read := cs.readers[device]; read != nil {
		return read()
	}
	return nil
}

// ErrReadOnly is returned by a config writer for keys the management
// plane can observe but not change at runtime (reboot-only settings like
// headroom carving).
var ErrReadOnly = errors.New("monitor: config key is read-only at runtime")

// ErrNoWriter is returned by Write for a device with no registered
// writer.
var ErrNoWriter = errors.New("monitor: no config writer for device")

// RegisterWriter wires a live configuration writer for a device; write
// applies one key=value to the running device.
func (cs *ConfigStore) RegisterWriter(device string, write func(key, val string) error) {
	cs.writers[device] = write
}

// Write pushes one key=value to the running device through its
// registered writer. This is the actuation path of a config rollout: the
// same store that detects drift is the only thing allowed to create it.
func (cs *ConfigStore) Write(device, key, val string) error {
	w := cs.writers[device]
	if w == nil {
		return fmt.Errorf("%w: %s", ErrNoWriter, device)
	}
	return w(key, val)
}

func copyConfig(cfg map[string]string) map[string]string {
	if cfg == nil {
		return nil
	}
	out := make(map[string]string, len(cfg))
	for k, v := range cfg {
		out[k] = v
	}
	return out
}

// Drift is one desired-vs-running mismatch, stamped with the checking
// kernel's clock so scorecards can compute time-to-detect from drift
// alone.
type Drift struct {
	At                     simtime.Time
	Device, Key, Want, Got string
}

// String renders the drift.
func (d Drift) String() string {
	return fmt.Sprintf("%v %s: %s=%q, want %q", d.At, d.Device, d.Key, d.Got, d.Want)
}

// Check returns all drifts, ordered (at, device, key). The check is
// set-symmetric over devices: a device with a desired configuration is
// compared key-by-key against its running state (missing reader = every
// desired key drifts), and a device that is running but was never given
// (or was deleted from) the desired set is itself a drift — one entry
// per running key, with an empty Want. Before this symmetry an
// unmanaged device could never drift, which is exactly how the §6.2
// switch model slipped in.
func (cs *ConfigStore) Check() []Drift {
	var at simtime.Time
	if cs.now != nil {
		at = cs.now()
	}
	devset := make(map[string]bool, len(cs.desired)+len(cs.readers))
	for d := range cs.desired {
		devset[d] = true
	}
	for d := range cs.readers {
		devset[d] = true
	}
	devices := make([]string, 0, len(devset))
	for d := range devset {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	var out []Drift
	for _, dev := range devices {
		var got map[string]string
		if read := cs.readers[dev]; read != nil {
			got = read()
		}
		want, managed := cs.desired[dev]
		if !managed {
			// Running but unmanaged: nothing vouches for any of its keys.
			keys := sortedKeys(got)
			for _, k := range keys {
				out = append(out, Drift{At: at, Device: dev, Key: k, Want: "", Got: got[k]})
			}
			continue
		}
		keys := sortedKeys(want)
		for _, k := range keys {
			if got[k] != want[k] {
				out = append(out, Drift{At: at, Device: dev, Key: k, Want: want[k], Got: got[k]})
			}
		}
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SwitchConfigReader exposes a switch's safety-relevant running
// configuration for drift checking.
func SwitchConfigReader(sw *fabric.Switch) func() map[string]string {
	return func() map[string]string {
		b := sw.Config().Buffer
		return map[string]string{
			"alpha":       fmt.Sprintf("1/%d", int(1/b.Alpha+0.5)),
			"dynamic":     fmt.Sprintf("%v", b.Dynamic),
			"headroom":    fmt.Sprintf("%d", b.HeadroomPerPG),
			"arp_fix":     fmt.Sprintf("%v", sw.Config().DropLosslessOnIncompleteARP),
			"ecn":         fmt.Sprintf("%v", sw.Config().ECN.Enabled),
			"watchdog":    fmt.Sprintf("%v", sw.Config().Watchdog.Enabled),
			"qos_map":     qosMapString(sw.Config().QoSMap),
			"ecn_classes": ecnClassesString(sw.Config().PGECN),
		}
	}
}

// qosMapString renders a switch's running priority→PG map: "identity"
// when every class is serviced in its own PG, otherwise the remapped
// entries as "pri->pg" pairs in priority order.
func qosMapString(m *[8]int) string {
	if m == nil {
		return "identity"
	}
	var parts []string
	for pri, pg := range m {
		if pg != pri {
			parts = append(parts, fmt.Sprintf("%d->%d", pri, pg))
		}
	}
	if len(parts) == 0 {
		return "identity"
	}
	return strings.Join(parts, ",")
}

// parseQoSMap inverts qosMapString. "identity" yields nil (no map
// programmed).
func parseQoSMap(val string) (*[8]int, error) {
	if val == "identity" {
		return nil, nil
	}
	m := new([8]int)
	for i := range m {
		m[i] = i
	}
	for _, part := range strings.Split(val, ",") {
		lhs, rhs, ok := strings.Cut(part, "->")
		if !ok {
			return nil, fmt.Errorf("bad qos_map entry %q", part)
		}
		pri, err1 := strconv.Atoi(lhs)
		pg, err2 := strconv.Atoi(rhs)
		if err1 != nil || err2 != nil || pri < 0 || pri > 7 || pg < 0 || pg > 7 {
			return nil, fmt.Errorf("bad qos_map entry %q", part)
		}
		m[pri] = pg
	}
	return m, nil
}

// ecnClassesString renders per-class ECN marking overrides: "uniform"
// when every class inherits the global profile, otherwise the overridden
// classes as "pgN:kmin/kmax/pmax" (or "pgN:off") in PG order.
func ecnClassesString(pg [8]*fabric.ECNConfig) string {
	var parts []string
	for i, e := range pg {
		if e == nil {
			continue
		}
		if !e.Enabled {
			parts = append(parts, fmt.Sprintf("pg%d:off", i))
		} else {
			parts = append(parts, fmt.Sprintf("pg%d:%d/%d/%.2f", i, e.KMin, e.KMax, e.PMax))
		}
	}
	if len(parts) == 0 {
		return "uniform"
	}
	return strings.Join(parts, ",")
}

// parseECNClasses inverts ecnClassesString into the full override table
// ("uniform" yields all-nil).
func parseECNClasses(val string) ([8]*fabric.ECNConfig, error) {
	var out [8]*fabric.ECNConfig
	if val == "uniform" {
		return out, nil
	}
	for _, part := range strings.Split(val, ",") {
		lhs, rhs, ok := strings.Cut(part, ":")
		if !ok || !strings.HasPrefix(lhs, "pg") {
			return out, fmt.Errorf("bad ecn_classes entry %q", part)
		}
		pg, err := strconv.Atoi(lhs[2:])
		if err != nil || pg < 0 || pg > 7 {
			return out, fmt.Errorf("bad ecn_classes entry %q", part)
		}
		if rhs == "off" {
			out[pg] = &fabric.ECNConfig{}
			continue
		}
		var kmin, kmax int
		var pmax float64
		if _, err := fmt.Sscanf(rhs, "%d/%d/%f", &kmin, &kmax, &pmax); err != nil ||
			kmin < 0 || kmax <= kmin || pmax <= 0 || pmax > 1 {
			return out, fmt.Errorf("bad ecn_classes entry %q", part)
		}
		out[pg] = &fabric.ECNConfig{Enabled: true, KMin: kmin, KMax: kmax, PMax: pmax}
	}
	return out, nil
}

// SwitchConfigWriter applies management-plane config changes to a
// running switch — the actuation half of the reader above, reusing the
// same runtime setters the fault injector exercises. Writable keys:
// "alpha" ("1/N" or a float), "ecn" (bool), "qos_map" ("identity" or
// "pri->pg" pairs) and "ecn_classes" ("uniform" or per-class
// "pgN:kmin/kmax/pmax" profiles). The rest of the reader's keys exist on
// the device but need a reboot (headroom carving) or a maintenance
// window (watchdog, arp_fix, dynamic) to change, so writing them returns
// ErrReadOnly.
func SwitchConfigWriter(sw *fabric.Switch) func(key, val string) error {
	return func(key, val string) error {
		switch key {
		case "alpha":
			a, err := parseAlpha(val)
			if err != nil {
				return fmt.Errorf("monitor: %s: %w", sw.Name(), err)
			}
			sw.SetBufferAlpha(a)
			return nil
		case "ecn":
			on, err := strconv.ParseBool(val)
			if err != nil {
				return fmt.Errorf("monitor: %s: bad ecn %q: %w", sw.Name(), val, err)
			}
			sw.SetECNEnabled(on)
			return nil
		case "qos_map":
			m, err := parseQoSMap(val)
			if err != nil {
				return fmt.Errorf("monitor: %s: %w", sw.Name(), err)
			}
			sw.SetQoSMap(m)
			return nil
		case "ecn_classes":
			tab, err := parseECNClasses(val)
			if err != nil {
				return fmt.Errorf("monitor: %s: %w", sw.Name(), err)
			}
			for pg, e := range tab {
				sw.SetPGECN(pg, e)
			}
			return nil
		case "dynamic", "headroom", "arp_fix", "watchdog":
			return fmt.Errorf("%w: %s on %s", ErrReadOnly, key, sw.Name())
		default:
			return fmt.Errorf("monitor: %s: unknown config key %q", sw.Name(), key)
		}
	}
}

// parseAlpha reads the store's "1/N" α encoding (or a plain float).
func parseAlpha(val string) (float64, error) {
	if den, ok := strings.CutPrefix(val, "1/"); ok {
		n, err := strconv.Atoi(den)
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("bad alpha %q", val)
		}
		return 1 / float64(n), nil
	}
	a, err := strconv.ParseFloat(val, 64)
	if err != nil || a <= 0 || a > 1 {
		return 0, fmt.Errorf("bad alpha %q", val)
	}
	return a, nil
}

// NICConfigReader exposes a NIC's safety-relevant running configuration
// for drift checking — the server-side half of the fleet's config
// surface (the paper's §6.2 pause storm came from a NIC, not a switch).
func NICConfigReader(n *nic.NIC) func() map[string]string {
	return func() map[string]string {
		c := n.Config()
		return map[string]string{
			"lossless_mask": fmt.Sprintf("%#02x", c.LosslessMask),
			"watchdog":      fmt.Sprintf("%v", c.Watchdog.Enabled),
			"cnp_prio":      fmt.Sprintf("%d", c.CNPPriority),
		}
	}
}
