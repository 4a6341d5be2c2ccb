// Package faults is the deterministic fault-injection subsystem: a
// library of fault types wired into the link, fabric, nic and buffer
// layers, a reproducible Schedule of (at, target, fault, duration)
// entries executed through sim.Kernel events, and a Campaign runner that
// sweeps a fault×scenario matrix and scores every cell on detection,
// recovery, residual invariant violations and whether the relevant
// safeguard fired (see campaign.go / scorecard.go).
//
// The paper's §6 incidents — the NIC PFC storm, the slow receiver, the
// buffer-α misconfiguration — are all states this package can reach on
// demand, against any experiment, byte-deterministically: the schedule
// runs off kernel events, targets are resolved from the announced
// topology, and randomized schedules draw from the kernel's named
// streams, so the same seed always produces the same run.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"rocesim/internal/fabric"
	"rocesim/internal/link"
	"rocesim/internal/nic"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/topology"
)

// Kind names a fault type.
type Kind string

// The fault library. Param is the kind-specific knob documented per kind;
// zero selects the default in parentheses.
const (
	// LinkDown pulls a cable for the duration: frames in both directions
	// are silently lost and ECMP groups withdraw the dead next hop.
	LinkDown Kind = "link-down"
	// LinkFlap pulls and re-seats a cable Param times (5) across the
	// duration — the repeated carrier loss of a failing transceiver.
	LinkFlap Kind = "link-flap"
	// LinkCorrupt sets the link's FCS error rate to Param (0.01): frames
	// are corrupted on the wire and discarded by the receiver's CRC check,
	// the paper's "packet losses can still happen for various other
	// reasons, including FCS errors".
	LinkCorrupt Kind = "link-corrupt"
	// SwitchReboot powers a switch off and (after the duration) on again:
	// MMU and queues flush, every carrier drops, PFC state resets.
	SwitchReboot Kind = "switch-reboot"
	// NICPauseStorm reproduces §6.2: the NIC's receive pipeline stops and
	// it pauses its ToR continuously until the fault is reverted (the
	// paper's out-of-band server reboot).
	NICPauseStorm Kind = "nic-pause-storm"
	// NICRxDegrade slows the receive pipeline by Param nanoseconds per
	// packet (5000) — the generalized §6.3 slow receiver, backpressuring
	// the fabric through PFC without ever stopping.
	NICRxDegrade Kind = "nic-rx-degrade"
	// CfgAlpha pushes buffer α = Param (1/64) to a switch — the §6.2
	// misconfiguration as a live config fault, visible to the
	// config-store drift checker.
	CfgAlpha Kind = "cfg-alpha"
	// CfgLosslessAsLossy misprograms the MMU of a switch so priority
	// Param (3) is treated as lossy while the declared configuration (and
	// the invariant auditor reading it) still says lossless: congestion
	// drops on the class surface as lossless-guarantee violations.
	CfgLosslessAsLossy Kind = "cfg-lossless-as-lossy"
	// CfgSharedPG misprograms a switch's QoS map so the traffic class
	// Param (4) is serviced in priority group Param−1 — two tenants
	// sharing a PG, the cross-class drift spiderpool's rdma-qos.sh
	// exists to prevent. Pause pairing breaks on the first hop: the
	// switch pauses the remapped PG while the sender keeps transmitting
	// in its own class, so the shared PG's headroom overflows and the
	// lossless guarantee is violated. Visible to the drift checker
	// through the "qos_map" key.
	CfgSharedPG Kind = "cfg-shared-pg"
	// CfgCNPLossy reprograms a NIC so its CNPs are emitted in lossy
	// class Param (1) instead of riding the data class — the
	// misprogrammed CNP priority of a multi-tenant QoS plan. Congestion
	// feedback now competes unprotected with lossy traffic. Visible to
	// the drift checker through the NIC reader's "cnp_prio" key.
	CfgCNPLossy Kind = "cfg-cnp-lossy"
)

// Kinds lists the whole fault library, in stable order.
func Kinds() []Kind {
	return []Kind{LinkDown, LinkFlap, LinkCorrupt, SwitchReboot,
		NICPauseStorm, NICRxDegrade, CfgAlpha, CfgLosslessAsLossy,
		CfgSharedPG, CfgCNPLossy}
}

// DefaultParam returns the kind's default Param value.
func DefaultParam(k Kind) float64 {
	switch k {
	case LinkFlap:
		return 5
	case LinkCorrupt:
		return 0.01
	case NICRxDegrade:
		return 5000 // ns per packet
	case CfgAlpha:
		return 1.0 / 64
	case CfgLosslessAsLossy:
		return 3
	case CfgSharedPG:
		return 4
	case CfgCNPLossy:
		return 1
	default:
		return 0
	}
}

// Entry is one planned fault: Kind hits Target at At and is reverted
// after Duration (0 = permanent — config faults usually are, until a
// human rolls them back).
//
// Target syntax: "link:A~B" (endpoint device names, either order),
// "switch:NAME", "nic:NAME".
type Entry struct {
	At       simtime.Time
	Duration simtime.Duration
	Kind     Kind
	Target   string
	Param    float64
}

// String renders the entry.
func (e Entry) String() string {
	s := fmt.Sprintf("%v %s %s", e.At, e.Kind, e.Target)
	if e.Duration > 0 {
		s += fmt.Sprintf(" for %v", e.Duration)
	} else {
		s += " permanent"
	}
	if e.Param != 0 {
		s += fmt.Sprintf(" param=%g", e.Param)
	}
	return s
}

// Schedule is an ordered fault plan.
type Schedule []Entry

// Sort orders entries by (At, Kind, Target), stably — the execution
// order, independent of how the plan was assembled.
func (s Schedule) Sort() {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].At != s[j].At {
			return s[i].At.Before(s[j].At)
		}
		if s[i].Kind != s[j].Kind {
			return s[i].Kind < s[j].Kind
		}
		return s[i].Target < s[j].Target
	})
}

// String renders the plan, one entry per line.
func (s Schedule) String() string {
	var b strings.Builder
	for _, e := range s {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Injector executes a Schedule against the topology announced on a
// kernel. Create it any time — before or after topology.Build — and it
// arms itself once the network appears through the component registry.
type Injector struct {
	k     *sim.Kernel
	sched Schedule
	net   *topology.Network

	// Log is the deterministic apply/revert journal, in event order.
	Log []string
}

// NewInjector attaches a schedule to k. Entries must not be in the past
// when the network is announced; unresolvable targets panic at arm time
// (a misspelled plan is a programming error, not a runtime condition).
func NewInjector(k *sim.Kernel, sched Schedule) *Injector {
	in := &Injector{k: k, sched: append(Schedule(nil), sched...)}
	in.sched.Sort()
	k.OnAnnounce(func(c any) {
		if n, ok := c.(*topology.Network); ok && in.net == nil {
			in.net = n
			in.arm()
		}
	})
	return in
}

// Network returns the resolved topology (nil until announced).
func (in *Injector) Network() *topology.Network { return in.net }

func (in *Injector) logf(format string, args ...any) {
	in.Log = append(in.Log, fmt.Sprintf("%v ", in.k.Now())+fmt.Sprintf(format, args...))
}

// arm schedules every entry's apply (and revert) as kernel events.
func (in *Injector) arm() {
	for i := range in.sched {
		e := in.sched[i]
		apply, revert := in.resolve(e)
		in.k.At(e.At, func() {
			in.logf("apply %s %s", e.Kind, e.Target)
			apply()
		})
		if e.Duration > 0 && revert != nil {
			in.k.At(e.At.Add(e.Duration), func() {
				in.logf("revert %s %s", e.Kind, e.Target)
				revert()
			})
		}
	}
}

// resolve binds an entry to its target objects and returns the apply and
// revert actions. Revert is nil for kinds with nothing to undo.
func (in *Injector) resolve(e Entry) (apply, revert func()) {
	param := e.Param
	if param == 0 {
		param = DefaultParam(e.Kind)
	}
	switch e.Kind {
	case LinkDown:
		l := in.lookupLink(e.Target)
		return func() { l.SetDown(true) }, func() { l.SetDown(false) }
	case LinkFlap:
		l := in.lookupLink(e.Target)
		cycles := int(param)
		if cycles < 1 {
			cycles = 1
		}
		if e.Duration <= 0 {
			panic(fmt.Sprintf("faults: %s needs a duration to flap across", e.Kind))
		}
		half := e.Duration / simtime.Duration(2*cycles)
		return func() {
			l.SetDown(true)
			// Each half-period toggles carrier; the final up edge lands at
			// the entry's revert time, which then finds the link already up.
			for c := 1; c < 2*cycles; c++ {
				down := c%2 == 0
				in.k.After(half*simtime.Duration(c), func() {
					l.SetDown(down)
					if down {
						in.logf("flap down %s", e.Target)
					} else {
						in.logf("flap up %s", e.Target)
					}
				})
			}
		}, func() { l.SetDown(false) }
	case LinkCorrupt:
		l := in.lookupLink(e.Target)
		return func() { l.FCSErrorRate = param }, func() { l.FCSErrorRate = 0 }
	case SwitchReboot:
		sw := in.lookupSwitch(e.Target)
		return func() { sw.SetFailed(true) }, func() { sw.SetFailed(false) }
	case NICPauseStorm:
		n := in.lookupNIC(e.Target)
		return func() { n.SetMalfunction(true) }, func() { n.SetMalfunction(false) }
	case NICRxDegrade:
		n := in.lookupNIC(e.Target)
		d := simtime.Duration(param) * simtime.Nanosecond
		return func() { n.SetRxSlowdown(d) }, func() { n.SetRxSlowdown(0) }
	case CfgAlpha:
		sw := in.lookupSwitch(e.Target)
		// The pre-fault value is captured at apply time, not at arm time:
		// an operator retune between topology announcement and the fault
		// firing must survive the revert (arm-time capture restored the
		// stale value; restoring a package default would be worse still).
		var old float64
		var captured bool
		return func() {
				if !captured {
					old, captured = sw.Config().Buffer.Alpha, true
				}
				sw.SetBufferAlpha(param)
			}, func() {
				if captured {
					sw.SetBufferAlpha(old)
				}
			}
	case CfgLosslessAsLossy:
		sw := in.lookupSwitch(e.Target)
		pg := int(param)
		// Capture the PG's real classification at apply time and restore
		// exactly that: reverting to a hard-coded "lossless" would
		// silently repair a PG the deployment intentionally runs lossy
		// (IRN fabrics, staged-rollout lossy tiers).
		var wasLossless, captured bool
		return func() {
				if !captured {
					wasLossless, captured = sw.MMU().Config().LosslessPGs[pg], true
				}
				sw.MisclassifyLossless(pg, false)
			}, func() {
				if captured {
					sw.MisclassifyLossless(pg, wasLossless)
				}
			}
	case CfgSharedPG:
		sw := in.lookupSwitch(e.Target)
		pri := int(param) & 0x7
		// Same capture-at-apply discipline as CfgAlpha: restore whatever
		// map was actually programmed, not a package default.
		var old *[8]int
		var captured bool
		return func() {
				if !captured {
					old, captured = sw.Config().QoSMap, true
				}
				m := new([8]int)
				for i := range m {
					m[i] = i
				}
				if base := old; base != nil {
					*m = *base
				}
				m[pri] = pri - 1
				sw.SetQoSMap(m)
			}, func() {
				if captured {
					sw.SetQoSMap(old)
				}
			}
	case CfgCNPLossy:
		n := in.lookupNIC(e.Target)
		var old int
		var captured bool
		return func() {
				if !captured {
					old, captured = n.Config().CNPPriority, true
				}
				n.SetCNPPriority(int(param))
			}, func() {
				if captured {
					n.SetCNPPriority(old)
				}
			}
	default:
		panic(fmt.Sprintf("faults: unknown kind %q", e.Kind))
	}
}

func targetName(target, scheme string) string {
	if !strings.HasPrefix(target, scheme+":") {
		panic(fmt.Sprintf("faults: target %q is not a %s target", target, scheme))
	}
	return target[len(scheme)+1:]
}

func (in *Injector) lookupLink(target string) *link.Link {
	name := targetName(target, "link")
	parts := strings.SplitN(name, "~", 2)
	if len(parts) != 2 {
		panic(fmt.Sprintf("faults: link target %q, want \"link:A~B\"", target))
	}
	a, b := parts[0], parts[1]
	for _, rec := range in.net.Links {
		if (rec.A == a && rec.B == b) || (rec.A == b && rec.B == a) {
			return rec.L
		}
	}
	panic(fmt.Sprintf("faults: no cable between %q and %q", a, b))
}

func (in *Injector) lookupSwitch(target string) *fabric.Switch {
	name := targetName(target, "switch")
	for _, sw := range in.net.Switches() {
		if sw.Name() == name {
			return sw
		}
	}
	panic(fmt.Sprintf("faults: no switch named %q", name))
}

func (in *Injector) lookupNIC(target string) *nic.NIC {
	name := targetName(target, "nic")
	for _, s := range in.net.Servers {
		if s.NIC.Name() == name {
			return s.NIC
		}
	}
	panic(fmt.Sprintf("faults: no NIC named %q", name))
}

// Hook adapts an Injector to the experiments' Observe hook, mirroring
// experiments.Audit: set the Observe option to (*Hook).Observe and the
// schedule runs inside each kernel the scenario runs; Injector returns
// the last one's.
//
//	h := faults.Hook{Schedule: plan}
//	experiments.Lookup("storm").Run(experiments.Options{Observe: h.Observe})
type Hook struct {
	Schedule Schedule
	in       *Injector
}

// Observe creates the injector on the kernel.
func (h *Hook) Observe(k *sim.Kernel) { h.in = NewInjector(k, h.Schedule) }

// Injector exposes the created injector (nil before Observe runs).
func (h *Hook) Injector() *Injector { return h.in }
