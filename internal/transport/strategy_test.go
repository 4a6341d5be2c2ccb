package transport

import (
	"testing"

	"rocesim/internal/irn"
	"rocesim/internal/packet"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
)

// --- Satellite: table-driven PSN arithmetic at the 24-bit wrap ---

func TestPSNAddTable(t *testing.T) {
	const M = packet.PSNMask
	cases := []struct {
		name string
		p, n uint32
		want uint32
	}{
		{"identity", 12345, 0, 12345},
		{"plain", 100, 50, 150},
		{"to-top", M - 1, 1, M},
		{"wrap-exact", M, 1, 0},
		{"wrap-over", M - 3, 10, 6},
		{"wrap-big-n", 5, M, 4}, // adding 2^24-1 ≡ -1
		{"full-cycle", 77, M + 1, 77},
		{"zero-from-top", M, M + 1, M},
	}
	for _, c := range cases {
		if got := irn.Add(c.p, c.n); got != c.want {
			t.Errorf("%s: irn.Add(%d,%d)=%d want %d", c.name, c.p, c.n, got, c.want)
		}
	}
}

func TestPSNDiffTable(t *testing.T) {
	const M = packet.PSNMask
	cases := []struct {
		name string
		a, b uint32
		want int32
	}{
		{"equal", 7, 7, 0},
		{"forward", 150, 100, 50},
		{"backward", 100, 150, -50},
		{"wrap-forward", 0, M, 1},
		{"wrap-forward-far", 5, M - 4, 10},
		{"wrap-backward", M, 0, -1},
		{"wrap-backward-far", M - 4, 5, -10},
		{"half-minus-one", 1<<23 - 1, 0, 1<<23 - 1},
		{"half-point", 1 << 23, 0, 1 << 23}, // ambiguous midpoint maps forward
		{"half-plus-one", 1<<23 + 1, 0, -(1<<23 - 1)},
		{"across-wrap-window", 3, M - 2, 6},
	}
	for _, c := range cases {
		if got := irn.Diff(c.a, c.b); got != c.want {
			t.Errorf("%s: irn.Diff(%d,%d)=%d want %d", c.name, c.a, c.b, got, c.want)
		}
	}
}

// --- Satellite: late-attached auditor still sees the first violation ---

type recAuditor struct {
	posted, completed int
	advances          [][2]uint32
}

func (r *recAuditor) WQEPosted(*QP)            { r.posted++ }
func (r *recAuditor) CQECompleted(*QP, OpKind) { r.completed++ }
func (r *recAuditor) AckAdvance(_ *QP, from, to uint32) {
	r.advances = append(r.advances, [2]uint32{from, to})
}

func TestLateAttachedAuditorSeesFirstEvents(t *testing.T) {
	// The invariant layer attaches via SetAuditor after New (QPs are
	// announced post-construction). The hook must observe the very
	// first ack advance and completion that happen after attachment —
	// auditor state is strategy-wired QP state, not a stale Config
	// snapshot.
	k := sim.NewKernel(3)
	a, b, _, _ := newPairRec(k, GoBackN)
	aud := &recAuditor{}
	a.SetAuditor(aud)
	a.Post(OpSend, 2048, nil)
	shuttle(k, a, b, nil)
	if aud.posted != 1 {
		t.Fatalf("late auditor missed WQEPosted: %d", aud.posted)
	}
	if aud.completed != 1 {
		t.Fatalf("late auditor missed CQECompleted: %d", aud.completed)
	}
	if len(aud.advances) == 0 {
		t.Fatal("late auditor missed the first AckAdvance")
	}
	if first := aud.advances[0]; first[0] != 0 {
		t.Fatalf("first advance must start at PSN 0: %v", first)
	}
	// Clearing works too, and Config stays immutable post-construction.
	a.SetAuditor(nil)
	if a.Config().Audit != nil {
		t.Fatal("SetAuditor must not mutate the construction Config")
	}
	n := len(aud.advances)
	a.Post(OpSend, 1024, nil)
	shuttle(k, a, b, nil)
	if len(aud.advances) != n || aud.posted != 1 {
		t.Fatal("cleared auditor still receiving events")
	}
}

// --- IRN strategy behaviour ---

func TestIRNSelectiveRepeatSingleLoss(t *testing.T) {
	k := sim.NewKernel(21)
	a, b, _, _ := newPairRec(k, IRN)
	done := false
	a.Post(OpSend, 16*1024, func(_, _ simtime.Time) { done = true }) // 16 packets
	dropped := false
	var naks int
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if p.SACK != nil {
			naks++
			if p.AETH == nil || p.AETH.NakCode() != packet.NakSACK {
				t.Fatal("SACK extension without NakSACK syndrome")
			}
		}
		if !dropped && p.BTH != nil && p.BTH.PSN == 5 && p.BTH.Opcode.IsRequest() {
			dropped = true
			return true
		}
		return false
	})
	if !done {
		t.Fatal("message incomplete after single loss")
	}
	if naks == 0 {
		t.Fatal("no NAK-with-SACK observed")
	}
	// Selective repeat resends ONLY the lost PSN: 16 + 1, not the
	// go-back-N tail re-walk.
	if a.S.PacketsSent != 17 {
		t.Fatalf("sent %d packets, want 17 (16 + one selective retransmit)", a.S.PacketsSent)
	}
	if a.S.PacketsRetx != 1 {
		t.Fatalf("retransmitted %d packets, want exactly 1", a.S.PacketsRetx)
	}
	if b.S.MessagesRecv != 1 || b.S.BytesDelivered != 16*1024 {
		t.Fatalf("responder: %+v", b.S)
	}
}

func TestIRNBurstLossRecovers(t *testing.T) {
	k := sim.NewKernel(22)
	a, b, _, _ := newPairRec(k, IRN)
	msgs := 0
	b.OnMessage = func(OpKind, int) { msgs++ }
	done := 0
	for i := 0; i < 3; i++ {
		a.Post(OpSend, 8*1024, func(_, _ simtime.Time) { done++ })
	}
	lost := map[uint32]bool{2: true, 3: true, 9: true, 17: true}
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if p.BTH != nil && p.BTH.Opcode.IsRequest() && lost[p.BTH.PSN] {
			delete(lost, p.BTH.PSN)
			return true
		}
		return false
	})
	if done != 3 || msgs != 3 {
		t.Fatalf("done=%d msgs=%d", done, msgs)
	}
	if b.S.BytesDelivered != 3*8*1024 {
		t.Fatalf("delivered %d", b.S.BytesDelivered)
	}
	// Four losses, four selective retransmits (plus possibly a timeout
	// backstop rewalk — but never a full go-back-N tail).
	if a.S.PacketsRetx > 8 {
		t.Fatalf("retransmitted %d for 4 losses", a.S.PacketsRetx)
	}
}

func TestIRNLossEpisodeSpansPSNWrap(t *testing.T) {
	// Satellite: the selective-repeat bitmap episode crosses the 24-bit
	// wrap — losses on both sides of the boundary, SACK bitmap based
	// just below it. The class of bug PR 4's stale-NAK fix hit.
	k := sim.NewKernel(23)
	a, b, _, _ := newPairRec(k, IRN)
	start := uint32(packet.PSNMask - 3) // PSNs ...fffc fffd fffe ffff 0 1 2 ...
	a.nextPSN, a.sndNxt, a.sndUna = start, start, start
	b.ePSN = start
	done := false
	a.Post(OpSend, 12*1024, func(_, _ simtime.Time) { done = true })
	lost := map[uint32]bool{packet.PSNMask - 1: true, 1: true} // one each side of the wrap
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if p.BTH != nil && p.BTH.Opcode.IsRequest() && lost[p.BTH.PSN] {
			delete(lost, p.BTH.PSN)
			return true
		}
		return false
	})
	if !done {
		t.Fatal("wrap-spanning loss episode never recovered")
	}
	if b.S.BytesDelivered != 12*1024 {
		t.Fatalf("delivered %d", b.S.BytesDelivered)
	}
	if want := irn.Add(start, 12); a.sndUna != want {
		t.Fatalf("sndUna=%d want %d", a.sndUna, want)
	}
	if a.S.PacketsRetx > 4 {
		t.Fatalf("selective repeat re-walked %d packets across the wrap", a.S.PacketsRetx)
	}
}

func TestIRNOutOfOrderDeliveryStaysInOrder(t *testing.T) {
	// The responder buffers OOO arrivals but must deliver messages in
	// order exactly once.
	k := sim.NewKernel(24)
	a, b, _, _ := newPairRec(k, IRN)
	var sizes []int
	b.OnMessage = func(_ OpKind, sz int) { sizes = append(sizes, sz) }
	done := 0
	a.Post(OpSend, 3*1024, func(_, _ simtime.Time) { done++ })
	a.Post(OpSend, 100, func(_, _ simtime.Time) { done++ })
	dropped := false
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if !dropped && p.BTH != nil && p.BTH.PSN == 0 && p.BTH.Opcode.IsRequest() {
			dropped = true // lose the FIRST packet; everything else arrives OOO
			return true
		}
		return false
	})
	if done != 2 {
		t.Fatalf("completions %d", done)
	}
	if len(sizes) != 2 || sizes[0] != 3*1024 || sizes[1] != 100 {
		t.Fatalf("delivery order/sizes %v", sizes)
	}
}

func TestIRNBDPCapBoundsFlight(t *testing.T) {
	k := sim.NewKernel(25)
	probe := New(&stubEP{k: k}, Config{QPN: 9, PeerQPN: 8, MTU: 1024})
	cfg := Config{QPN: 1, PeerQPN: 2, Priority: 3, MTU: 1024, SrcPort: 700, Recovery: IRN}
	cfg.IRN = &irn.Config{BDPBytes: 4 * probe.mtuWireLen()}
	q := New(&stubEP{k: k}, cfg)
	if got := q.Strategy().MaxOutstanding(); got != 4 {
		t.Fatalf("MaxOutstanding=%d want 4 (BDP cap)", got)
	}
	q.Post(OpSend, 64*1024, nil)
	n := 0
	for {
		p := q.Pop(k.Now())
		if p == nil {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("emitted %d packets with a 4-packet BDP cap", n)
	}
	if !q.Strategy().SelectiveRepeat() {
		t.Fatal("IRN must report selective repeat")
	}
}

func TestIRNReadFallsBackToReissue(t *testing.T) {
	k := sim.NewKernel(26)
	a, b, _, _ := newPairRec(k, IRN)
	done := false
	a.Post(OpRead, 8*1024, func(_, _ simtime.Time) { done = true })
	dropped := false
	shuttle(k, a, b, func(p *packet.Packet) bool {
		if !dropped && p.BTH != nil && p.BTH.Opcode.IsReadResponse() && p.BTH.PSN == 3 {
			dropped = true
			return true
		}
		return false
	})
	if !done {
		t.Fatal("IRN read never completed after a lost response")
	}
	if a.S.BytesDelivered < 8*1024 {
		t.Fatalf("delivered %d", a.S.BytesDelivered)
	}
}

func TestStrategyRebindPanics(t *testing.T) {
	k := sim.NewKernel(27)
	ea, eb := &stubEP{k: k}, &stubEP{k: k}
	s := NewGoBackN()
	New(ea, Config{QPN: 1, PeerQPN: 2, MTU: 1024, Strategy: s})
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a strategy instance across QPs must panic")
		}
	}()
	New(eb, Config{QPN: 2, PeerQPN: 1, MTU: 1024, Strategy: s})
}

func TestStrategyNames(t *testing.T) {
	k := sim.NewKernel(28)
	for _, c := range []struct {
		rec  Recovery
		want string
	}{{GoBack0, "go-back-0"}, {GoBackN, "go-back-N"}, {IRN, "irn"}} {
		q := New(&stubEP{k: k}, Config{QPN: 9, PeerQPN: 8, MTU: 1024, Recovery: c.rec})
		if q.Strategy().Name() != c.want {
			t.Fatalf("Recovery %v -> strategy %q, want %q", c.rec, q.Strategy().Name(), c.want)
		}
		if c.rec.String() != c.want {
			t.Fatalf("Recovery(%d).String()=%q want %q", c.rec, c.rec.String(), c.want)
		}
	}
}
