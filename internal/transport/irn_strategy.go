package transport

import (
	"rocesim/internal/irn"
	"rocesim/internal/packet"
	"rocesim/internal/simtime"
)

// irnStrategy adapts the internal/irn mechanics to the QP: the
// responder buffers out-of-order arrivals and answers every gap with a
// NAK carrying its cumulative point plus a SACK bitmap; the requester
// queues exactly the PSNs proven lost for retransmission ahead of new
// data, and bounds flight at the path BDP. No PFC is assumed anywhere:
// drops are an expected signal, not an incident.
//
// READs are the exception: response streams have no per-packet reverse
// channel, so READ recovery re-issues the request for the remaining
// bytes exactly like go-back-N (see QP.recoverRead).
type irnStrategy struct {
	strategyBase
	cfg    irn.Config
	maxOut uint32 // flow bound in packets: min(Window, BDP packets)

	// Requester state.
	rtx    *irn.Queue   // lost PSNs awaiting selective retransmission
	sacked *irn.SackSet // PSNs the responder holds out of order

	// Responder state.
	tr *irn.Tracker // out-of-order arrivals past ePSN
}

// Name implements Strategy.
func (s *irnStrategy) Name() string { return "irn" }

// SelectiveRepeat implements Strategy.
func (s *irnStrategy) SelectiveRepeat() bool { return true }

// MaxOutstanding implements Strategy.
func (s *irnStrategy) MaxOutstanding() uint32 { return s.maxOut }

func (s *irnStrategy) bind(q *QP) {
	s.bindTo(q)
	s.maxOut = uint32(q.cfg.Window)
	if n := irn.BDPPackets(s.cfg.BDPBytes, q.mtuWireLen()); n > 0 && n < s.maxOut {
		s.maxOut = n
	}
}

func (s *irnStrategy) hasData(q *QP) bool {
	if len(q.ops) == 0 {
		return false
	}
	if s.rtx.Len() > 0 {
		return true
	}
	if irn.Diff(q.sndNxt, q.nextPSN) >= 0 {
		return false // everything assigned has been transmitted
	}
	return irn.Diff(q.sndNxt, q.sndUna) < int32(s.maxOut)
}

func (s *irnStrategy) popRequest(q *QP, now simtime.Time) *packet.Packet {
	// Selective retransmissions first: each serves one proven-lost PSN
	// without disturbing sndNxt.
	for {
		psn, ok := s.rtx.Peek()
		if !ok {
			break
		}
		if irn.Diff(psn, q.sndUna) < 0 {
			s.rtx.Pop() // cumulative point moved past it meanwhile
			continue
		}
		o := q.opForPSN(psn)
		if o == nil || o.kind == OpRead {
			// READ ranges recover by request re-issue, never by
			// per-PSN replay.
			s.rtx.Pop()
			continue
		}
		s.rtx.Pop()
		q.S.PacketsRetx++
		q.cfg.Metrics.PacketsRetx.Inc()
		return q.emitRequest(o, psn, now, false)
	}
	// New data, BDP-bounded.
	if irn.Diff(q.sndNxt, q.nextPSN) >= 0 ||
		irn.Diff(q.sndNxt, q.sndUna) >= int32(s.maxOut) {
		return nil
	}
	o := q.opForPSN(q.sndNxt)
	if o == nil {
		return nil
	}
	if o.kind == OpRead && o != q.ops[0] {
		return nil
	}
	return q.emitRequest(o, q.sndNxt, now, true)
}

// retxTimeout implements IRN's two-level timer: losses with packets
// still behind them surface as NAK-with-SACK feedback, so the timer
// only matters for tail losses — and those strand at most a pipe's
// worth of packets. With at most LowFlightThresh packets in flight the
// aggressive RTOLow applies (a spurious fire can re-send only that
// handful); with a fuller pipe the conservative RTOHigh guards against
// retransmission storms.
func (s *irnStrategy) retxTimeout(q *QP) simtime.Duration {
	flight := irn.Diff(q.sndNxt, q.sndUna)
	th := s.cfg.LowFlightThresh
	if th == 0 {
		th = irn.DefaultLowFlightThresh
	}
	if s.cfg.RTOLow > 0 && flight >= 0 && uint32(flight) <= th {
		return s.cfg.RTOLow
	}
	if s.cfg.RTOHigh > 0 {
		return s.cfg.RTOHigh
	}
	return q.cfg.RetxTimeout
}

func (s *irnStrategy) onTimeout(q *QP) {
	if q.ops[0].kind == OpRead {
		q.recoverRead(q.sndUna, false, false)
		return
	}
	// Backstop: queue everything in flight that the responder has not
	// SACKed. Spurious entries are cheap — the responder re-ACKs
	// duplicates and the queue prunes anything behind sndUna.
	for psn := q.sndUna; irn.Diff(psn, q.sndNxt) < 0; psn = irn.Add(psn, 1) {
		if s.sacked.Has(psn) {
			continue
		}
		s.rtx.Push(psn)
	}
}

func (s *irnStrategy) onNak(q *QP, p *packet.Packet) {
	if irn.Diff(p.BTH.PSN, q.sndUna) < 0 &&
		(len(q.ops) == 0 || q.ops[0].kind != OpRead) {
		return // stale: an episode already recovered past (see cumulative.onNak)
	}
	if len(q.ops) > 0 && q.ops[0].kind == OpRead {
		q.traceRetx("nak")
		q.recoverRead(p.BTH.PSN, true, false)
		q.armRetx()
		q.ep.Kick()
		return
	}
	cum := p.BTH.PSN
	// The cumulative point in the NAK acknowledges everything before it.
	if irn.Diff(cum, q.sndUna) > 0 {
		from := q.sndUna
		q.sndUna = cum
		if q.aud != nil {
			q.aud.AckAdvance(q, from, cum)
		}
		s.onCumAdvance(q, from, cum)
		q.completeOps()
	}
	var bm uint64
	if p.SACK != nil {
		bm = p.SACK.Bitmap
	}
	for i := uint32(1); i < 64; i++ {
		if bm>>i&1 == 1 {
			s.sacked.Add(irn.Add(cum, i))
		}
	}
	queued := false
	for _, psn := range irn.Lost(cum, bm) {
		if irn.Diff(psn, q.sndNxt) >= 0 {
			break // not transmitted yet: nothing to repair
		}
		if s.sacked.Has(psn) {
			continue
		}
		if s.rtx.Push(psn) {
			queued = true
		}
	}
	if queued {
		q.traceRetx("nak")
		q.ep.Kick()
	}
	if len(q.ops) > 0 {
		q.armRetx()
	}
}

func (s *irnStrategy) onGap(q *QP, p *packet.Packet) {
	bth := p.BTH
	var dma uint32
	if p.RETH != nil {
		dma = p.RETH.DMALen
	}
	// Buffer the arrival (size-only: the simulator carries no payload
	// bytes) so it can be replayed in order once the gap fills.
	s.tr.Put(q.ePSN, bth.PSN, irn.Meta{
		Opcode:     uint8(bth.Opcode),
		PayloadLen: p.PayloadLen,
		AckReq:     bth.AckReq,
		DMALen:     dma,
	})
	// NAK-with-SACK on every out-of-order arrival: per-packet feedback
	// is what lets the requester repair exactly the holes.
	nak := q.newCtl(packet.OpAcknowledge)
	*nak.AttachAETH() = packet.AETH{
		Syndrome: packet.AETHNak | packet.NakSACK,
		MSN:      q.rMSN,
	}
	nak.BTH.PSN = q.ePSN
	nak.AttachSACK().Bitmap = s.tr.Bitmap(q.ePSN)
	q.ctl = append(q.ctl, nak)
	q.S.NaksSent++
	q.cfg.Metrics.NaksSent.Inc()
}

func (s *irnStrategy) onReadGap(q *QP, missing uint32) {
	q.recoverRead(missing, false, false)
}

func (s *irnStrategy) afterInOrder(q *QP) {
	// Drain buffered arrivals now contiguous with the expected PSN,
	// replaying each through the shared in-order path (delivery,
	// accounting, ACK generation).
	for {
		m, ok := s.tr.Take(q.ePSN)
		if !ok {
			return
		}
		q.acceptInOrder(packet.Opcode(m.Opcode), q.ePSN, m.PayloadLen, m.AckReq, m.DMALen)
	}
}

func (s *irnStrategy) onCumAdvance(q *QP, from, to uint32) {
	s.sacked.PruneBelow(from, to)
}

func (s *irnStrategy) resetRequester(q *QP) {
	s.rtx = irn.NewQueue()
	s.sacked = irn.NewSackSet()
}
