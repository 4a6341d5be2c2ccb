// Package buffer models the shared-buffer memory management unit (MMU) of
// a commodity switching ASIC, as the paper describes it: ingress queues
// are just counters over a common pool, dynamic thresholds follow the
// alpha rule (admission while α×UB > B(p,i)), and each lossless priority
// group reserves headroom to absorb in-flight packets after XOFF.
package buffer

import (
	"fmt"
	"math"
	"math/bits"
)

// Config sizes and parameterizes an MMU.
type Config struct {
	// TotalBytes is the packet buffer size. The paper's ToR and Leaf
	// switches have 9 MB or 12 MB.
	TotalBytes int
	// HeadroomPerPG is the reserved headroom per lossless (port, PG),
	// sized from MTU, PFC reaction time, and cable propagation delay
	// (see Headroom).
	HeadroomPerPG int
	// Alpha is the dynamic-threshold parameter: a PG may keep allocating
	// shared buffer while α×(unallocated shared) > (its allocation).
	// The paper's incident: default 1/16 works, a new switch model
	// shipping 1/64 caused a pause-frame flood.
	Alpha float64
	// Dynamic selects dynamic buffer sharing; when false each (port, PG)
	// gets the fixed StaticLimit instead (the paper found static
	// reservation propagates pauses more).
	Dynamic bool
	// StaticLimit is the per-(port, PG) shared-buffer cap in static mode.
	StaticLimit int
	// XOFFDelta is the hysteresis between the XOFF and XON thresholds:
	// XON = XOFF - XOFFDelta. It must be positive to avoid pause/resume
	// oscillation on every packet.
	XOFFDelta int
	// LosslessPGs marks which of the 8 priority groups are lossless. The
	// paper can afford exactly two on shallow-buffer switches.
	LosslessPGs [8]bool
	// PGAlpha optionally overrides Alpha per priority group (0 = inherit
	// Alpha). Multi-tenant fabrics give each traffic class its own
	// dynamic-threshold aggressiveness — a bulk storage class can be
	// squeezed harder than a latency-sensitive collective class.
	PGAlpha [8]float64
	// PGHeadroom optionally overrides HeadroomPerPG per priority group
	// (0 = inherit HeadroomPerPG). Only meaningful for lossless PGs.
	PGHeadroom [8]int
}

// AlphaFor returns the dynamic-threshold α in effect for pg.
func (c *Config) AlphaFor(pg int) float64 {
	if a := c.PGAlpha[pg]; a > 0 {
		return a
	}
	return c.Alpha
}

// HeadroomFor returns the headroom reservation in effect for pg.
func (c *Config) HeadroomFor(pg int) int {
	if h := c.PGHeadroom[pg]; h > 0 {
		return h
	}
	return c.HeadroomPerPG
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.TotalBytes <= 0 {
		return fmt.Errorf("buffer: TotalBytes %d", c.TotalBytes)
	}
	if c.Dynamic && c.Alpha <= 0 {
		return fmt.Errorf("buffer: Alpha %v", c.Alpha)
	}
	if !c.Dynamic && c.StaticLimit <= 0 {
		return fmt.Errorf("buffer: StaticLimit %d", c.StaticLimit)
	}
	if c.XOFFDelta <= 0 {
		return fmt.Errorf("buffer: XOFFDelta %d", c.XOFFDelta)
	}
	if c.HeadroomPerPG < 0 {
		return fmt.Errorf("buffer: HeadroomPerPG %d", c.HeadroomPerPG)
	}
	for pg := range c.PGAlpha {
		if c.PGAlpha[pg] < 0 {
			return fmt.Errorf("buffer: PGAlpha[%d] %v", pg, c.PGAlpha[pg])
		}
		if c.PGHeadroom[pg] < 0 {
			return fmt.Errorf("buffer: PGHeadroom[%d] %d", pg, c.PGHeadroom[pg])
		}
	}
	return nil
}

// Headroom returns the per-(port, PG) headroom needed to absorb traffic
// already in flight when an XOFF arrives at the upstream sender: two MTUs
// (one serializing at each end), the round-trip propagation of the cable,
// the pause frame itself, and the sender's reaction time, all converted
// to bytes at line rate. This is the calculation that limits the paper's
// shallow-buffer switches to two lossless classes.
func Headroom(mtu int, linkBytesPerSec int64, cableMeters float64, reactionSec float64) int {
	// Round-trip propagation at ~5 ns/m.
	propSec := 2 * cableMeters * 5e-9
	inflight := float64(linkBytesPerSec) * (propSec + reactionSec)
	return 2*mtu + 64 /* pause frame */ + int(inflight)
}

// Outcome says what the MMU did with an admission request.
type Outcome int

// Admission outcomes.
const (
	// AdmitShared: the packet fits under the (dynamic or static)
	// threshold and was charged to the shared pool.
	AdmitShared Outcome = iota
	// AdmitHeadroom: the shared threshold is exceeded but the packet fits
	// in the PG's reserved headroom (lossless PGs only). The caller must
	// already have paused, or pause now.
	AdmitHeadroom
	// Drop: no space. For a correctly configured lossless PG this never
	// happens; the MMU counts it so tests can assert on it.
	Drop
)

// Transition is a pause-state change the caller must act on.
type Transition int

// Pause-state transitions.
const (
	None Transition = iota
	XOFF            // start pausing the upstream
	XON             // resume the upstream
)

// MMU is the shared-buffer accountant for one switch. It is not
// goroutine-safe; the simulation kernel is single-threaded.
type MMU struct {
	cfg Config
	// buckets holds the accounting of every ingress (port, PG) at index
	// port<<3|pg, grown the first time a port is used; an all-zero
	// bucket is simply an idle one.
	buckets []bucket
	// paused has bit port<<3|pg set while that bucket is in the paused
	// (XOFF-sent) state, so Reevaluate visits paused buckets in
	// ascending (port, PG) order without sorting.
	paused []uint64
	// floor[pg] is at most the shared bytes of every paused bucket of pg
	// that holds no headroom: the buckets Reevaluate could resume. While
	// each PG's XON level stays below its floor, a sweep would resume
	// nothing, and Reevaluate skips it.
	floor         [8]int
	sharedUsed    int     // sum of the buckets' shared bytes
	reservedBytes int     // sum of the buckets' reservations
	resumed       []PGRef // Reevaluate's result, reused across calls

	// Counters for monitoring.
	Drops         uint64
	LosslessDrops uint64
	PeakShared    int
}

// bucket is the accounting state of one ingress (port, PG).
type bucket struct {
	shared   int // shared-pool bytes charged
	headroom int // headroom bytes charged
	// reserved is the headroom reservation a lossless bucket claims on
	// first use and never returns, matching how operators provision
	// headroom per configured port. It can differ per PG under
	// PGHeadroom overrides.
	reserved int
}

// New returns an MMU with the given configuration.
func New(cfg Config) (*MMU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &MMU{cfg: cfg}
	m.resetFloors()
	return m, nil
}

// resetFloors sets every PG's floor as if no bucket were paused.
func (m *MMU) resetFloors() {
	for pg := range m.floor {
		m.floor[pg] = math.MaxInt
	}
}

// lowerFloor keeps bucket i inside its PG's floor after its usage or
// pause state changed. The PG's class does not matter: a bucket paused
// while lossless keeps its bit after SetLossless demotes the PG, and can
// resume once the PG is lossless again.
func (m *MMU) lowerFloor(i int) {
	if b := &m.buckets[i]; b.headroom == 0 && b.shared < m.floor[i&7] && m.isPaused(i) {
		m.floor[i&7] = b.shared
	}
}

// Config returns the MMU's configuration.
func (m *MMU) Config() Config { return m.cfg }

// SetAlpha changes the dynamic-threshold parameter at runtime — pushing a
// wrong α to a running switch, the §6.2 incident as a live config fault.
// Takes effect on the next admission; existing accounting is untouched.
func (m *MMU) SetAlpha(a float64) { m.cfg.Alpha = a }

// SetPGAlpha changes the per-PG dynamic-threshold override at runtime
// (0 restores inheritance from the global Alpha).
func (m *MMU) SetPGAlpha(pg int, a float64) { m.cfg.PGAlpha[pg] = a }

// SetLossless reprograms whether PG pg is treated as lossless. It
// deliberately leaves paused state, headroom charges and reservations in
// place: hardware reprogrammed under load keeps whatever state the old
// classification accumulated, and that stale state is exactly what
// CheckConservation flags afterwards.
func (m *MMU) SetLossless(pg int, lossless bool) { m.cfg.LosslessPGs[pg] = lossless }

// SharedUsed returns the total shared-pool occupancy in bytes.
func (m *MMU) SharedUsed() int { return m.sharedUsed }

// Usage returns the shared and headroom bytes charged to (port, pg).
func (m *MMU) Usage(port, pg int) (shared, headroom int) {
	if i := port<<3 | pg; i < len(m.buckets) {
		return m.buckets[i].shared, m.buckets[i].headroom
	}
	return 0, 0
}

// Paused reports whether (port, pg) is in the paused (XOFF-sent) state.
func (m *MMU) Paused(port, pg int) bool {
	i := port<<3 | pg
	return i < len(m.buckets) && m.isPaused(i)
}

func (m *MMU) isPaused(i int) bool { return m.paused[i>>6]&(1<<(i&63)) != 0 }

// index returns the bucket index of (port, pg), growing the table the
// first time port is used.
func (m *MMU) index(port, pg int) int {
	i := port<<3 | pg
	if i >= len(m.buckets) {
		n := (port + 1) << 3
		m.buckets = append(m.buckets, make([]bucket, n-len(m.buckets))...)
		for len(m.paused) < (n+63)>>6 {
			m.paused = append(m.paused, 0)
		}
	}
	return i
}

// sharedPool is the part of the buffer available for dynamic sharing:
// total minus all claimed headroom reservations.
func (m *MMU) sharedPool() int {
	pool := m.cfg.TotalBytes - m.reservedBytes
	if pool < 0 {
		pool = 0
	}
	return pool
}

// threshold returns the current XOFF threshold for one bucket of pg.
func (m *MMU) threshold(pg int) int {
	if !m.cfg.Dynamic {
		return m.cfg.StaticLimit
	}
	ub := m.sharedPool() - m.sharedUsed
	if ub < 0 {
		ub = 0
	}
	return int(m.cfg.AlphaFor(pg) * float64(ub))
}

// Threshold exposes the instantaneous XOFF threshold of a PG with no
// per-class override, for monitoring and tests.
func (m *MMU) Threshold() int {
	if !m.cfg.Dynamic {
		return m.cfg.StaticLimit
	}
	ub := m.sharedPool() - m.sharedUsed
	if ub < 0 {
		ub = 0
	}
	return int(m.cfg.Alpha * float64(ub))
}

// ThresholdFor exposes the instantaneous XOFF threshold of pg, honoring
// per-class α overrides.
func (m *MMU) ThresholdFor(pg int) int { return m.threshold(pg) }

// Admit charges bytes of an arriving packet to (port, pg) and returns the
// admission outcome together with any pause transition the ingress must
// signal upstream.
func (m *MMU) Admit(port, pg, bytes int) (Outcome, Transition) {
	i := m.index(port, pg)
	b := &m.buckets[i]
	lossless := m.cfg.LosslessPGs[pg]
	if lossless && b.reserved == 0 {
		// Claim the headroom reservation on first use. HeadroomFor is
		// fixed for the MMU's life, so a zero reservation re-claimed
		// here stays zero.
		b.reserved = m.cfg.HeadroomFor(pg)
		m.reservedBytes += b.reserved
	}
	thr := m.threshold(pg)

	if b.shared+bytes <= thr && m.sharedUsed+bytes <= m.sharedPool() {
		b.shared += bytes
		m.sharedUsed += bytes
		if m.sharedUsed > m.PeakShared {
			m.PeakShared = m.sharedUsed
		}
		// Even a shared admission can cross into pause territory when
		// the threshold shrank below current usage.
		return AdmitShared, m.updatePause(i, thr)
	}

	if lossless && b.headroom+bytes <= m.cfg.HeadroomFor(pg) {
		b.headroom += bytes
		return AdmitHeadroom, m.updatePause(i, thr)
	}

	m.Drops++
	if lossless {
		m.LosslessDrops++
	}
	return Drop, m.updatePause(i, thr)
}

// Release returns bytes of a departing packet to the pool. Headroom is
// drained before shared, mirroring hardware that refills reserves first.
func (m *MMU) Release(port, pg, bytes int) Transition {
	i := m.index(port, pg)
	b := &m.buckets[i]
	if take := min(bytes, b.headroom); take > 0 {
		b.headroom -= take
		bytes -= take
	}
	if bytes > 0 {
		if bytes > b.shared {
			panic(fmt.Sprintf("buffer: releasing %d from (%d,%d) holding %d", bytes, port, pg, b.shared))
		}
		b.shared -= bytes
		m.sharedUsed -= bytes
	}
	tr := m.updatePause(i, m.threshold(pg))
	m.lowerFloor(i)
	return tr
}

// updatePause recomputes the pause state of bucket i and returns the
// transition if it changed.
func (m *MMU) updatePause(i, thr int) Transition {
	if !m.cfg.LosslessPGs[i&7] {
		return None // lossy PGs drop instead of pausing
	}
	b := &m.buckets[i]
	xon := thr - m.cfg.XOFFDelta
	if xon < 0 {
		xon = 0
	}
	over := b.headroom > 0 || b.shared >= thr
	under := b.headroom == 0 && b.shared <= xon
	bit := uint64(1) << (i & 63)
	switch paused := m.isPaused(i); {
	case over && !paused:
		m.paused[i>>6] |= bit
		m.lowerFloor(i)
		return XOFF
	case under && paused:
		m.paused[i>>6] &^= bit
		return XON
	default:
		return None
	}
}

// CheckConservation audits the MMU's internal accounting and returns the
// first inconsistency found, or nil. The checks are exactly the
// conservation laws the accounting relies on: per-bucket usage is
// non-negative, and the paused bitmap agrees with the buckets (it spans
// the table and marks no bucket beyond it); the shared total equals the
// sum of the per-bucket counters; headroom is only ever charged to
// lossless buckets that have claimed a reservation and never beyond it;
// pause state exists only for lossless buckets; the reservation ledger
// matches the claimed buckets; and no paused bucket without headroom
// sits below its PG's floor, where Reevaluate would miss its resume.
// Deliberately NOT checked: sharedUsed <= sharedPool — a later headroom claim can shrink the pool
// below existing usage, which is legal and self-corrects as packets
// drain.
func (m *MMU) CheckConservation() error {
	if want := (len(m.buckets) + 63) >> 6; len(m.paused) != want {
		return fmt.Errorf("buffer: paused bitmap has %d words for %d buckets, want %d", len(m.paused), len(m.buckets), want)
	}
	for w, word := range m.paused {
		if word != 0 {
			if i := w<<6 | (63 - bits.LeadingZeros64(word)); i >= len(m.buckets) {
				return fmt.Errorf("buffer: paused bit for (%d,%d) beyond the %d-bucket table", i>>3, i&7, len(m.buckets))
			}
		}
	}
	sum, reserved := 0, 0
	for i := range m.buckets {
		b := &m.buckets[i]
		port, pg := i>>3, i&7
		if b.shared < 0 {
			return fmt.Errorf("buffer: shared[%d,%d]=%d (negative)", port, pg, b.shared)
		}
		sum += b.shared
		reserved += b.reserved
		switch {
		case b.headroom < 0:
			return fmt.Errorf("buffer: headroom[%d,%d]=%d (negative)", port, pg, b.headroom)
		case b.headroom == 0:
		case b.reserved == 0:
			return fmt.Errorf("buffer: headroom charged to unclaimed bucket (%d,%d)", port, pg)
		case b.headroom > b.reserved:
			return fmt.Errorf("buffer: headroom[%d,%d]=%d exceeds reservation %d", port, pg, b.headroom, b.reserved)
		case !m.cfg.LosslessPGs[pg]:
			return fmt.Errorf("buffer: headroom charged to lossy PG (%d,%d)", port, pg)
		}
		if m.isPaused(i) && !m.cfg.LosslessPGs[pg] {
			return fmt.Errorf("buffer: lossy PG (%d,%d) in paused state", port, pg)
		}
		if m.isPaused(i) && b.headroom == 0 && b.shared < m.floor[pg] {
			return fmt.Errorf("buffer: paused (%d,%d) holds %d shared bytes, below its PG's floor %d", port, pg, b.shared, m.floor[pg])
		}
	}
	if sum != m.sharedUsed {
		return fmt.Errorf("buffer: sum(shared)=%d but sharedUsed=%d", sum, m.sharedUsed)
	}
	if m.sharedUsed < 0 {
		return fmt.Errorf("buffer: sharedUsed=%d", m.sharedUsed)
	}
	if m.PeakShared < m.sharedUsed {
		return fmt.Errorf("buffer: PeakShared=%d below current usage %d", m.PeakShared, m.sharedUsed)
	}
	if m.reservedBytes != reserved {
		return fmt.Errorf("buffer: reservedBytes=%d, want %d", m.reservedBytes, reserved)
	}
	return nil
}

// Reevaluate rechecks every paused bucket against the current (possibly
// grown) threshold and returns the buckets that may now resume, in
// ascending (port, PG) order. Hardware evaluates thresholds continuously;
// an event-driven model must recheck when the unallocated pool grows
// because of releases elsewhere. The returned slice is only valid until
// the next call.
//
// A bucket resumes only when it holds no headroom and its shared bytes
// are at most its PG's XON level, so while every PG's XON level is below
// its floor the sweep is skipped. A sweep visits every paused bucket and
// recomputes the floors from those it leaves paused.
func (m *MMU) Reevaluate() []PGRef {
	m.resumed = m.resumed[:0]
	if !m.mayResume() {
		return m.resumed
	}
	m.resetFloors()
	// Per-PG thresholds are fixed for the whole sweep (updatePause never
	// touches pool usage), so each is computed once, on first need.
	var thr [8]int
	var have uint8
	for w, word := range m.paused {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			pg := i & 7
			if have&(1<<pg) == 0 {
				thr[pg] = m.threshold(pg)
				have |= 1 << pg
			}
			if m.updatePause(i, thr[pg]) == XON {
				m.resumed = append(m.resumed, PGRef{Port: i >> 3, PG: pg})
			} else {
				m.lowerFloor(i)
			}
		}
	}
	return m.resumed
}

// mayResume reports whether some PG's XON level reaches its floor, so
// that a sweep could resume one of its buckets.
func (m *MMU) mayResume() bool {
	for pg, f := range m.floor {
		if f != math.MaxInt && max(m.threshold(pg)-m.cfg.XOFFDelta, 0) >= f {
			return true
		}
	}
	return false
}

// PGRef names an ingress accounting bucket in Reevaluate results.
type PGRef struct {
	Port int
	PG   int
}

// MaxLosslessClasses returns how many lossless priority groups a
// shared-buffer switch can afford: each lossless class needs
// HeadroomPerPG on every port, and the paper requires enough left over
// for the shared pool to be useful (at least half the buffer). With 9 MB
// buffers, 32+ ports and 300 m cables, the answer is two — the paper's
// constraint.
func MaxLosslessClasses(totalBytes, ports, headroomPerPG int) int {
	if headroomPerPG <= 0 || ports <= 0 {
		return 8
	}
	classes := 0
	for classes < 8 {
		reserved := (classes + 1) * ports * headroomPerPG
		if totalBytes-reserved < totalBytes/2 {
			break
		}
		classes++
	}
	return classes
}
