package experiments

import (
	"fmt"

	"rocesim/internal/fabric"
	"rocesim/internal/link"
	"rocesim/internal/nic"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/transport"
)

// LivelockConfig shapes the Section 4.1 experiment: two servers, one
// switch, 4 MB messages as fast as possible, and a deterministic drop of
// every packet whose IP ID ends in 0xff (rate 1/256 ≈ 0.4%).
type LivelockConfig struct {
	Seed        int64
	Verb        transport.OpKind
	Recovery    transport.Recovery
	MessageSize int
	Duration    simtime.Duration
	DropLSB     byte // IP-ID low byte that gets dropped (0xff in the paper)
	DropOff     bool // disable the drop rule (baseline)
	// Observe, when set, runs after the fabric is built and before
	// traffic starts, so callers can attach tracers or auditors.
	Observe func(*sim.Kernel)
	// Shards partitions the two servers and the switch across parallel
	// event-kernel shards (<=1 runs the classic single kernel). Results
	// are byte-identical for any value.
	Shards int
}

// DefaultLivelock returns the paper's parameters.
func DefaultLivelock(verb transport.OpKind, rec transport.Recovery) LivelockConfig {
	return LivelockConfig{
		Seed:        1,
		Verb:        verb,
		Recovery:    rec,
		MessageSize: 4 << 20,
		Duration:    100 * simtime.Millisecond,
		DropLSB:     0xff,
	}
}

// LivelockResult reports goodput and link business.
type LivelockResult struct {
	Cfg               LivelockConfig
	MessagesCompleted int
	GoodputGbps       float64
	WireGbps          float64 // what the sender put on the wire
	LinkUtilization   float64 // of the 40G link
	Drops             uint64
	Naks              uint64
	Timeouts          uint64
}

// Table renders a row in the shape of the paper's Section 4.1 findings.
func (r LivelockResult) Table() string {
	return row(
		fmt.Sprintf("%-6s", r.Cfg.Verb),
		fmt.Sprintf("%-10s", r.Cfg.Recovery),
		fmt.Sprintf("msgs=%-5d", r.MessagesCompleted),
		fmt.Sprintf("goodput=%6.2fGb/s", r.GoodputGbps),
		fmt.Sprintf("wire=%6.2fGb/s", r.WireGbps),
		fmt.Sprintf("drops=%-6d", r.Drops),
		fmt.Sprintf("naks=%-5d", r.Naks),
		fmt.Sprintf("timeouts=%d", r.Timeouts),
	)
}

// RunLivelock executes the experiment.
func RunLivelock(cfg LivelockConfig) LivelockResult {
	k := sim.NewRoot(cfg.Seed, cfg.Shards)
	// Manual shard map: the switch and server 0 share a shard, server 1
	// gets the next one; its 10 ns server cable is the lookahead.
	kFor := func(station int) *sim.Kernel {
		if g := k.Group(); g != nil {
			return g.Shard(station % g.N())
		}
		return k
	}
	if g := k.Group(); g != nil {
		g.SetLookahead(10 * simtime.Nanosecond)
	}
	swCfg := fabric.DefaultConfig("W", 4)
	swCfg.ECN.Enabled = false
	sw, err := fabric.NewSwitch(kFor(0), swCfg, packet.MAC{0x02, 0xff, 0, 0, 0, 1})
	if err != nil {
		panic(err)
	}
	if !cfg.DropOff {
		lsb := cfg.DropLSB
		sw.DropFn = func(p *packet.Packet) bool {
			return p.IP != nil && byte(p.IP.ID&0xff) == lsb
		}
	}
	var nics [2]*nic.NIC
	for i := 0; i < 2; i++ {
		mac := packet.MAC{0x02, 0, 0, 0, 0, byte(i + 1)}
		ip := packet.IPv4Addr(10, 0, 0, byte(i+1))
		nics[i] = nic.New(kFor(i), nic.DefaultConfig(fmt.Sprintf("srv%d", i), mac, ip))
		l := link.New(k, 40*simtime.Gbps, 10*simtime.Nanosecond)
		sw.AttachLink(i, l, 0, mac, true)
		nics[i].Attach(l, 1)
		sw.SetARP(ip, mac)
		sw.LearnMAC(mac, i)
	}
	sw.AddRoute(fabric.Route{Prefix: packet.IPv4Addr(10, 0, 0, 0), Bits: 24, Local: true})
	if cfg.Observe != nil {
		cfg.Observe(k)
	}

	mk := func(on *nic.NIC, peerIdx int, qpn, pqpn uint32) *transport.QP {
		return on.CreateQP(transport.Config{
			QPN: qpn, PeerQPN: pqpn,
			DstIP: nics[peerIdx].IP(), GwMAC: sw.MAC(),
			Priority: 3, MTU: 1024,
			Recovery:    cfg.Recovery,
			RetxTimeout: 200 * simtime.Microsecond,
		})
	}
	qa := mk(nics[0], 1, 100, 200)
	qb := mk(nics[1], 0, 200, 100)

	// For SEND/WRITE, A is the requester; for READ, B reads from A.
	req := qa
	if cfg.Verb == transport.OpRead {
		req = qb
	}
	completed := 0
	var post func()
	post = func() {
		req.Post(cfg.Verb, cfg.MessageSize, func(_, _ simtime.Time) {
			completed++
			post()
		})
	}
	post()
	post()
	k.RunUntil(simtime.Time(cfg.Duration))

	var rx *transport.QP
	if cfg.Verb == transport.OpRead {
		rx = qb // requester delivers read data locally
	} else {
		rx = qb
	}
	goodBits := float64(completed) * float64(cfg.MessageSize) * 8
	_ = rx
	wireBits := float64(qa.S.BytesSent+qb.S.BytesSent) * 8
	return LivelockResult{
		Cfg:               cfg,
		MessagesCompleted: completed,
		GoodputGbps:       gbps(goodBits, cfg.Duration),
		WireGbps:          gbps(wireBits, cfg.Duration),
		LinkUtilization:   gbps(wireBits, cfg.Duration) / 40,
		Drops:             sw.C.InjectedDrops.Value(),
		Naks:              qa.S.NaksReceived + qb.S.NaksReceived,
		Timeouts:          qa.S.Timeouts + qb.S.Timeouts,
	}
}

// livelockMatrix runs the full Section 4.1 grid (3 verbs × 2 recovery
// schemes) and renders it. The output is byte-identical for any shard
// count.
func livelockMatrix(o Options) string {
	out := "Section 4.1 — RDMA transport livelock (drop 1/256 by IP ID)\n"
	for _, rec := range []transport.Recovery{transport.GoBack0, transport.GoBackN} {
		for _, verb := range []transport.OpKind{transport.OpSend, transport.OpWrite, transport.OpRead} {
			cfg := DefaultLivelock(verb, rec)
			o.into(&cfg.Seed, &cfg.Shards, &cfg.Duration, &cfg.Observe)
			out += RunLivelock(cfg).Table()
		}
	}
	return out
}
