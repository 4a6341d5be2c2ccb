package nic

import (
	"fmt"
	"testing"

	"rocesim/internal/dcqcn"
	"rocesim/internal/fabric"
	"rocesim/internal/link"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/transport"
)

// refScheduler is the transmit scheduler the kicked-QP one replaced,
// kept as the reference: every kick visits every QP, round robin from
// rrIdx, and re-arms its wake-up at the earliest ready time.
type refScheduler struct {
	n     *NIC
	armed *sim.Timer
}

func (r *refScheduler) kick() {
	n := r.n
	now := n.k.Now()
	for n.eg.TotalQueued() < 4096 {
		var earliest simtime.Time = simtime.Forever
		sent := false
		for i := 0; i < len(n.order); i++ {
			q := n.order[(n.rrIdx+i)%len(n.order)]
			at := q.NextReady(now)
			if at.After(now) {
				if at.Before(earliest) {
					earliest = at
				}
				continue
			}
			p := q.Pop(now)
			if p == nil {
				continue
			}
			n.rrIdx = (n.rrIdx + i + 1) % len(n.order)
			n.inject(p, q.Config().Priority)
			sent = true
			break
		}
		if !sent {
			if earliest != simtime.Forever {
				r.armed.ResetAt(earliest)
			}
			return
		}
	}
}

// refEndpoint hands a QP the reference scheduler as its Kick.
type refEndpoint struct {
	qpEndpoint
	r *refScheduler
}

func (e refEndpoint) Kick() { e.r.kick() }

// TestTxKickMatchesFullScan runs one burst twice, once under the NIC's
// scheduler and once under refScheduler, and requires the same frames
// on the wire at the same instants. Four QPs paced at 5, 10, 15 and
// 20 Gb/s share the 40 Gb/s port; each goes idle when its message is
// out or its two-packet window is full, and becomes ready again
// mid-burst through a Post or an ACK.
func TestTxKickMatchesFullScan(t *testing.T) {
	run := func(ref bool) (wire []string, done int) {
		k := sim.NewKernel(5)
		r := newRig(t, k, 2, fabric.DefaultConfig("tor", 4), nil)
		src, dst := r.nics[0], r.nics[1]
		rs := &refScheduler{n: src}
		rs.armed = k.NewTimer(rs.kick)
		if ref {
			src.eg.OnTransmit = func(link.Item) { rs.kick() }
		}
		src.lk.Tap = func(p *packet.Packet) {
			if p.BTH != nil && p.IP.Src == src.IP() {
				wire = append(wire, fmt.Sprintf("%v %v qp%d psn%d", k.Now(), p.BTH.Opcode, p.BTH.DestQP, p.BTH.PSN))
			}
		}
		qps := make([]*transport.QP, 4)
		for i := range qps {
			dc := dcqcn.DefaultParams(simtime.Rate(5*(i+1)) * simtime.Gbps)
			cfg := transport.Config{
				QPN: uint32(100 + i), PeerQPN: uint32(200 + i), DstIP: dst.IP(), GwMAC: r.sw.MAC(),
				SrcPort: uint16(50000 + i), Priority: 3, MTU: 1024, Window: 2, DCQCN: &dc,
			}
			if ref {
				cfg.SrcMAC, cfg.SrcIP, cfg.Pool = src.MAC(), src.IP(), k.PacketPool()
				qps[i] = transport.New(refEndpoint{qpEndpoint{n: src}, rs}, cfg)
				src.qps[cfg.QPN] = qps[i]
				src.order = append(src.order, qps[i])
			} else {
				qps[i] = src.CreateQP(cfg)
			}
			peer := cfg
			peer.QPN, peer.PeerQPN, peer.DstIP, peer.DCQCN = cfg.PeerQPN, cfg.QPN, src.IP(), nil
			dst.CreateQP(peer)
		}
		post := func(at simtime.Duration, i, size int) {
			k.At(simtime.Time(at), func() {
				qps[i].Post(transport.OpSend, size, func(_, _ simtime.Time) { done++ })
			})
		}
		post(0, 0, 8<<10)
		post(0, 1, 24<<10)
		post(3*simtime.Microsecond, 2, 16<<10)
		post(7*simtime.Microsecond, 3, 32<<10)
		post(14*simtime.Microsecond, 2, 8<<10)
		post(30*simtime.Microsecond, 0, 12<<10)
		k.RunUntil(simtime.Time(200 * simtime.Microsecond))
		return wire, done
	}
	got, gotDone := run(false)
	want, wantDone := run(true)
	if gotDone != 6 || wantDone != 6 {
		t.Fatalf("completed %d messages, reference %d; want 6 each", gotDone, wantDone)
	}
	if len(got) != len(want) {
		t.Fatalf("%d frames on the wire, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("frame %d: %s, reference %s", i, got[i], want[i])
		}
	}
}
