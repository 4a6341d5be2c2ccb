// Package core assembles the paper's contribution: safe, large-scale
// RoCEv2 deployment over commodity Ethernet. It combines DSCP-based PFC
// (Section 3), the safety fixes of Section 4 (go-back-N, the
// ARP-incomplete drop rule, the NIC and switch PFC storm watchdogs,
// large MTT pages, dynamic buffer sharing, DCQCN), the two-lossless-class
// QoS plan of Section 2, and the staged deployment procedure of
// Section 6.1 — exposed as one Deployment that builds a fully wired
// fabric under configuration management. Counter sampling and alerting
// live in the health plane (internal/health), which a caller attaches
// to the deployment's kernel.
package core

import (
	"fmt"

	"rocesim/internal/dcqcn"
	"rocesim/internal/fabric"
	"rocesim/internal/irn"
	"rocesim/internal/monitor"
	"rocesim/internal/nic"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/topology"
	"rocesim/internal/transport"
)

// Traffic classes, as the paper assigns them: two lossless classes on
// shallow-buffer switches is all the headroom budget allows, so one
// carries latency-sensitive ("real-time") RDMA and one carries bulk
// RDMA; TCP rides a lossy class with reserved bandwidth.
const (
	ClassRealTime = 3 // lossless
	ClassBulk     = 4 // lossless
	ClassTCP      = 1 // lossy, bandwidth-reserved
)

// PFCMode selects how packet priority is carried (Section 3).
type PFCMode int

// Priority-carriage schemes.
const (
	// DSCPBased carries priority in the IP DSCP field: no VLAN tag, so
	// PXE boot works (access-mode ports) and priority crosses L3
	// subnet boundaries. This is the paper's design.
	DSCPBased PFCMode = iota
	// VLANBased carries priority in the 802.1Q PCP bits: the original
	// scheme, requiring trunk-mode server ports.
	VLANBased
)

// String names the mode.
func (m PFCMode) String() string {
	if m == DSCPBased {
		return "dscp-based"
	}
	return "vlan-based"
}

// TransportMode selects the fabric-wide answer to "does RDMA need a
// lossless network?". The paper's deployment (the zero value) says yes
// and builds one with PFC; the IRN modes (Mittal et al., SIGCOMM 2018)
// say no and run selective repeat over a lossy fabric — without or with
// ECN-driven end-to-end congestion control.
type TransportMode int

// Transport modes.
const (
	// TransportPFCDCQCN is the paper's production stack: a PFC-lossless
	// fabric, go-back-N recovery, DCQCN congestion control.
	TransportPFCDCQCN TransportMode = iota
	// TransportIRNNoPFC disables PFC everywhere (switch lossless PGs
	// and NIC pause generation) and runs IRN selective repeat with only
	// its BDP flight bound for congestion control.
	TransportIRNNoPFC
	// TransportIRNECN is IRN on a lossy fabric that still marks ECN:
	// selective repeat for loss recovery plus DCQCN for rate control.
	TransportIRNECN
)

// String names the mode.
func (m TransportMode) String() string {
	switch m {
	case TransportIRNNoPFC:
		return "irn-no-pfc"
	case TransportIRNECN:
		return "irn+ecn"
	default:
		return "pfc+dcqcn"
	}
}

// IRN reports whether the mode runs selective repeat on a lossy fabric.
func (m TransportMode) IRN() bool {
	return m == TransportIRNNoPFC || m == TransportIRNECN
}

// Safety is the Section 4 fix switchboard. The zero value is the "all
// bugs present" configuration the paper started from; Recommended turns
// everything on.
type Safety struct {
	// GoBackN replaces the vendor's go-back-0 loss recovery (§4.1).
	GoBackN bool
	// ARPDropFix drops lossless packets with incomplete ARP entries
	// instead of flooding them (§4.2, option 3).
	ARPDropFix bool
	// NICWatchdog disables a NIC's pause generation when its receive
	// pipeline is stuck (§4.3).
	NICWatchdog bool
	// SwitchWatchdog disables lossless mode on a server port that is
	// stuck while pauses pour in (§4.3).
	SwitchWatchdog bool
	// LargePages uses 2 MB MTT pages instead of 4 KB (§4.4).
	LargePages bool
	// DynamicBuffer enables dynamic shared-buffer thresholds (§4.4,
	// §6.2).
	DynamicBuffer bool
	// DCQCN enables end-to-end congestion control (§2).
	DCQCN bool
}

// Recommended returns the paper's final production configuration.
func Recommended() Safety {
	return Safety{
		GoBackN:        true,
		ARPDropFix:     true,
		NICWatchdog:    true,
		SwitchWatchdog: true,
		LargePages:     true,
		DynamicBuffer:  true,
		DCQCN:          true,
	}
}

// Stage is the Section 6.1 onboarding ladder. PFC (and hence RDMA) is
// enabled only up to the stage's scope.
type Stage int

// Deployment stages, in rollout order.
const (
	StageLab Stage = iota
	StageTestCluster
	StageToR    // RDMA within a rack only
	StagePodset // PFC up to Leaf switches
	StageSpine  // PFC everywhere: full production
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageLab:
		return "lab"
	case StageTestCluster:
		return "test-cluster"
	case StageToR:
		return "tor"
	case StagePodset:
		return "podset"
	default:
		return "spine"
	}
}

// losslessAt reports whether PFC is enabled at a switch level for the
// stage.
func (s Stage) losslessAt(level string) bool {
	switch level {
	case "tor":
		return s >= StageToR || s == StageLab || s == StageTestCluster
	case "leaf":
		return s >= StagePodset
	default: // spine
		return s >= StageSpine
	}
}

// Config describes a deployment.
type Config struct {
	Topology topology.Spec
	Mode     PFCMode
	Safety   Safety
	Stage    Stage
	// Transport selects the lossless-vs-lossy stack. The default,
	// TransportPFCDCQCN, is the paper's deployment; the IRN modes strip
	// PFC from every switch and NIC and run selective repeat instead.
	Transport TransportMode
	// Alpha overrides the dynamic-buffer parameter (default 1/16; the
	// incident of §6.2 shipped 1/64).
	Alpha float64
	// MTTRegionBytes sizes the registered-memory region the slow
	// receiver model draws addresses from.
	MTTRegionBytes int64
	// SwitchTweak, when set, adjusts each switch configuration after
	// the deployment's own settings are applied (experiments use it for
	// ablations like per-packet spraying).
	SwitchTweak func(level string, c *fabric.Config)
	// NICTweak is the NIC-side counterpart (the chaos campaigns use it
	// to scale watchdog time constants down to simulation-sized runs).
	NICTweak func(c *nic.Config)
}

// DefaultConfig returns a production-shaped deployment of the given
// topology.
func DefaultConfig(spec topology.Spec) Config {
	return Config{
		Topology:       spec,
		Mode:           DSCPBased,
		Safety:         Recommended(),
		Stage:          StageSpine,
		Alpha:          1.0 / 16,
		MTTRegionBytes: 1 << 30,
	}
}

// Deployment is a built fabric and its configuration store.
type Deployment struct {
	K       *sim.Kernel
	Cfg     Config
	Net     *topology.Network
	Configs *monitor.ConfigStore

	dcqcnParams dcqcn.Params
}

// New builds the deployment.
func New(k *sim.Kernel, cfg Config) (*Deployment, error) {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 1.0 / 16
	}
	spec := cfg.Topology
	safety := cfg.Safety

	spec.SwitchConfig = func(level, name string, ports int) fabric.Config {
		c := fabric.DefaultConfig(name, ports)
		c.Buffer.Alpha = cfg.Alpha
		c.Buffer.Dynamic = safety.DynamicBuffer
		if !safety.DynamicBuffer {
			// Static fallback: an even split across ports and classes.
			c.Buffer.StaticLimit = c.Buffer.TotalBytes / ports / 4
		}
		c.DropLosslessOnIncompleteARP = safety.ARPDropFix
		c.ECN.Enabled = safety.DCQCN
		if safety.SwitchWatchdog {
			c.Watchdog = fabric.DefaultWatchdog()
		}
		if !cfg.Stage.losslessAt(level) {
			// Staged rollout: this layer treats every class as lossy.
			c.Buffer.LosslessPGs = [8]bool{}
		}
		if cfg.Transport.IRN() {
			// Lossy fabric: no lossless classes anywhere, so no PFC, no
			// headroom, no pause storms — and no watchdog to fight them.
			// ECN marking stays only in the irn+ecn mode.
			c.Buffer.LosslessPGs = [8]bool{}
			c.ECN.Enabled = cfg.Transport == TransportIRNECN
		}
		if cfg.SwitchTweak != nil {
			cfg.SwitchTweak(level, &c)
		}
		return c
	}
	spec.NICConfig = func(name string, mac packet.MAC, ip packet.Addr) nic.Config {
		c := nic.DefaultConfig(name, mac, ip)
		page := 4 << 10
		if safety.LargePages {
			page = 2 << 20
		}
		c.MTT = &nic.MTTConfig{Entries: 2048, PageSize: page, RegionBytes: cfg.MTTRegionBytes}
		c.MissPenalty = 600 * simtime.Nanosecond
		if safety.NICWatchdog {
			c.Watchdog = nic.DefaultWatchdog()
		}
		if cfg.Transport.IRN() {
			c.LosslessMask = 0 // the NIC never generates pause frames
		}
		if cfg.NICTweak != nil {
			cfg.NICTweak(&c)
		}
		return c
	}

	net, err := topology.Build(k, spec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d := &Deployment{
		K:           k,
		Cfg:         cfg,
		Net:         net,
		Configs:     monitor.NewConfigStore(),
		dcqcnParams: dcqcn.DefaultParams(spec.LinkRate),
	}
	d.Configs.SetClock(k.Now)
	for _, sw := range net.Switches() {
		read := monitor.SwitchConfigReader(sw)
		d.Configs.RegisterReader(sw.Name(), read)
		d.Configs.RegisterWriter(sw.Name(), monitor.SwitchConfigWriter(sw))
		want := d.desiredSwitchConfig()
		// Per-class QoS intent (priority→PG map, per-class ECN) is
		// whatever the build plan — SwitchTweak included — programmed, so
		// a fresh deployment is drift-free and later divergence pages.
		run := read()
		want["qos_map"] = run["qos_map"]
		want["ecn_classes"] = run["ecn_classes"]
		d.Configs.SetDesired(sw.Name(), want)
	}
	for _, s := range net.Servers {
		// NICs are managed too: desired is captured from the as-built
		// configuration (NICTweak included), so a fresh deployment is
		// drift-free and any later divergence — or a NIC outside the
		// config store entirely — pages.
		read := monitor.NICConfigReader(s.NIC)
		d.Configs.RegisterReader(s.NIC.Name(), read)
		d.Configs.SetDesired(s.NIC.Name(), read())
	}
	return d, nil
}

// desiredSwitchConfig is the operator intent recorded in the config
// store.
func (d *Deployment) desiredSwitchConfig() map[string]string {
	// ECN intent follows the transport contract: the Safety switchboard
	// governs the PFC stack, but an IRN fabric marks only in irn+ecn
	// mode — otherwise the drift checker would page on every lossy
	// deployment.
	ecn := d.Cfg.Safety.DCQCN
	if d.Cfg.Transport.IRN() {
		ecn = d.Cfg.Transport == TransportIRNECN
	}
	return map[string]string{
		"alpha":    fmt.Sprintf("1/%d", int(1/d.Cfg.Alpha+0.5)),
		"dynamic":  fmt.Sprintf("%v", d.Cfg.Safety.DynamicBuffer),
		"arp_fix":  fmt.Sprintf("%v", d.Cfg.Safety.ARPDropFix),
		"ecn":      fmt.Sprintf("%v", ecn),
		"watchdog": fmt.Sprintf("%v", d.Cfg.Safety.SwitchWatchdog),
	}
}

// Connect creates an RC queue pair between two servers in the bulk or
// real-time class, applying the deployment's transport settings: the
// recovery scheme and DCQCN per the Safety switchboard in the PFC
// stack, or IRN with a topology-derived BDP flight cap in the lossy
// modes (rate control only when the fabric still marks ECN), plus VLAN
// tagging in VLANBased mode.
func (d *Deployment) Connect(a, b *topology.Server, class int) (qa, qb *transport.QP) {
	return d.Net.QPPair(a, b, func(c *transport.Config) {
		c.Priority = class
		switch {
		case d.Cfg.Transport.IRN():
			c.Recovery = transport.IRN
			frame := packet.EthernetHeaderLen + packet.IPv4HeaderLen +
				packet.UDPHeaderLen + packet.BTHLen + c.MTU +
				packet.ICRCLen + packet.EthernetFCSLen
			if d.Cfg.Mode == VLANBased {
				frame += packet.VLANTagLen
			}
			c.IRN = &irn.Config{BDPBytes: d.Cfg.Topology.BDPBytes(frame)}
			if d.Cfg.Transport == TransportIRNECN {
				p := d.dcqcnParams
				c.DCQCN = &p
			}
		case d.Cfg.Safety.GoBackN:
			c.Recovery = transport.GoBackN
		default:
			c.Recovery = transport.GoBack0
		}
		if !d.Cfg.Transport.IRN() && d.Cfg.Safety.DCQCN {
			p := d.dcqcnParams
			c.DCQCN = &p
		}
		if d.Cfg.Mode == VLANBased {
			c.VLAN = &packet.VLANTag{VID: 2}
		}
	})
}

// CheckDrift runs the configuration drift check.
func (d *Deployment) CheckDrift() []monitor.Drift { return d.Configs.Check() }

// FindDeadlock scans the fabric for a PFC pause cycle.
func (d *Deployment) FindDeadlock() []string {
	return fabric.FindPauseCycle(d.Net.Switches())
}

// PXEBootResult models the Section 3 OS-provisioning interaction: a
// PXE-booting NIC has no VLAN configuration and exchanges untagged
// frames. Trunk-mode ports (required by VLAN-based PFC) only pass tagged
// frames, so provisioning breaks; DSCP-based PFC keeps ports in access
// mode and PXE just works.
func PXEBootResult(mode PFCMode) error {
	if mode == VLANBased {
		return fmt.Errorf("pxe: server port is in trunk mode for VLAN-based PFC; untagged DHCP/TFTP frames are not forwarded")
	}
	return nil
}

// PriorityAcrossSubnets models the second Section 3 problem: VLAN PCP is
// an L2 field and is not preserved across an IP subnet boundary, while
// DSCP survives IP routing. It returns the priority observed after
// crossing a router given the original class.
func PriorityAcrossSubnets(mode PFCMode, class int) int {
	if mode == VLANBased {
		return 0 // the tag (and its PCP) is stripped at the L3 boundary
	}
	return class
}
