package buffer

import (
	"fmt"
	"sort"
)

// refMMU is the map-based MMU layout the dense bucket table replaced,
// kept with its arithmetic unchanged as the differential reference
// FuzzMMU checks MMU against: one map per counter keyed by (port, PG),
// zero entries deleted, and Reevaluate sorting the resumed buckets it
// collects from the paused map.

// key identifies an ingress accounting bucket.
type key struct {
	port int
	pg   int
}

type refMMU struct {
	cfg           Config
	shared        map[key]int
	headroom      map[key]int
	sharedUsed    int
	paused        map[key]bool
	reserved      map[key]int
	reservedBytes int

	Drops         uint64
	LosslessDrops uint64
	PeakShared    int
}

func newRefMMU(cfg Config) *refMMU {
	return &refMMU{
		cfg:      cfg,
		shared:   make(map[key]int),
		headroom: make(map[key]int),
		paused:   make(map[key]bool),
		reserved: make(map[key]int),
	}
}

func (m *refMMU) SetAlpha(a float64) { m.cfg.Alpha = a }

func (m *refMMU) SetPGAlpha(pg int, a float64) { m.cfg.PGAlpha[pg] = a }

func (m *refMMU) SetLossless(pg int, lossless bool) { m.cfg.LosslessPGs[pg] = lossless }

func (m *refMMU) SharedUsed() int { return m.sharedUsed }

func (m *refMMU) Usage(port, pg int) (shared, headroom int) {
	k := key{port, pg}
	return m.shared[k], m.headroom[k]
}

func (m *refMMU) Paused(port, pg int) bool { return m.paused[key{port, pg}] }

func (m *refMMU) sharedPool() int {
	pool := m.cfg.TotalBytes - m.reservedBytes
	if pool < 0 {
		pool = 0
	}
	return pool
}

func (m *refMMU) claim(k key) {
	if !m.cfg.LosslessPGs[k.pg] {
		return
	}
	if _, ok := m.reserved[k]; ok {
		return
	}
	h := m.cfg.HeadroomFor(k.pg)
	m.reserved[k] = h
	m.reservedBytes += h
}

func (m *refMMU) threshold(pg int) int {
	if !m.cfg.Dynamic {
		return m.cfg.StaticLimit
	}
	ub := m.sharedPool() - m.sharedUsed
	if ub < 0 {
		ub = 0
	}
	return int(m.cfg.AlphaFor(pg) * float64(ub))
}

func (m *refMMU) Admit(port, pg, bytes int) (Outcome, Transition) {
	k := key{port, pg}
	lossless := m.cfg.LosslessPGs[pg]
	m.claim(k)
	thr := m.threshold(pg)

	if m.shared[k]+bytes <= thr && m.sharedUsed+bytes <= m.sharedPool() {
		m.shared[k] += bytes
		m.sharedUsed += bytes
		if m.sharedUsed > m.PeakShared {
			m.PeakShared = m.sharedUsed
		}
		return AdmitShared, m.updatePause(k, thr)
	}

	if lossless && m.headroom[k]+bytes <= m.cfg.HeadroomFor(pg) {
		m.headroom[k] += bytes
		return AdmitHeadroom, m.updatePause(k, thr)
	}

	m.Drops++
	if lossless {
		m.LosslessDrops++
	}
	return Drop, m.updatePause(k, thr)
}

func (m *refMMU) Release(port, pg, bytes int) Transition {
	k := key{port, pg}
	if h := m.headroom[k]; h > 0 {
		take := bytes
		if take > h {
			take = h
		}
		m.headroom[k] = h - take
		if m.headroom[k] == 0 {
			delete(m.headroom, k)
		}
		bytes -= take
	}
	if bytes > 0 {
		s := m.shared[k]
		if bytes > s {
			panic(fmt.Sprintf("buffer: releasing %d from (%d,%d) holding %d", bytes, port, pg, s))
		}
		m.shared[k] = s - bytes
		if m.shared[k] == 0 {
			delete(m.shared, k)
		}
		m.sharedUsed -= bytes
	}
	return m.updatePause(k, m.threshold(k.pg))
}

func (m *refMMU) updatePause(k key, thr int) Transition {
	if !m.cfg.LosslessPGs[k.pg] {
		return None
	}
	xon := thr - m.cfg.XOFFDelta
	if xon < 0 {
		xon = 0
	}
	over := m.headroom[k] > 0 || m.shared[k] >= thr
	under := m.headroom[k] == 0 && m.shared[k] <= xon
	switch {
	case over && !m.paused[k]:
		m.paused[k] = true
		return XOFF
	case under && m.paused[k]:
		delete(m.paused, k)
		return XON
	default:
		return None
	}
}

func (m *refMMU) CheckConservation() error {
	sum := 0
	for k, v := range m.shared {
		if v <= 0 {
			return fmt.Errorf("buffer: shared[%d,%d]=%d (stale or negative entry)", k.port, k.pg, v)
		}
		sum += v
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
	for k, v := range m.headroom {
		if v <= 0 {
			return fmt.Errorf("buffer: headroom[%d,%d]=%d (stale or negative entry)", k.port, k.pg, v)
		}
		res, claimed := m.reserved[k]
		if !claimed {
			return fmt.Errorf("buffer: headroom charged to unclaimed bucket (%d,%d)", k.port, k.pg)
		}
		if v > res {
			return fmt.Errorf("buffer: headroom[%d,%d]=%d exceeds reservation %d", k.port, k.pg, v, res)
		}
		if !m.cfg.LosslessPGs[k.pg] {
			return fmt.Errorf("buffer: headroom charged to lossy PG (%d,%d)", k.port, k.pg)
		}
	}
	for k := range m.paused {
		if !m.cfg.LosslessPGs[k.pg] {
			return fmt.Errorf("buffer: lossy PG (%d,%d) in paused state", k.port, k.pg)
		}
	}
	want := 0
	for _, res := range m.reserved {
		want += res
	}
	if m.reservedBytes != want {
		return fmt.Errorf("buffer: reservedBytes=%d, want %d for %d claims", m.reservedBytes, want, len(m.reserved))
	}
	return nil
}

func (m *refMMU) Reevaluate() []PGRef {
	var resumed []PGRef
	var thr [8]int
	var have [8]bool
	for k := range m.paused {
		if !have[k.pg] {
			thr[k.pg] = m.threshold(k.pg)
			have[k.pg] = true
		}
		if m.updatePause(k, thr[k.pg]) == XON {
			resumed = append(resumed, PGRef{Port: k.port, PG: k.pg})
		}
	}
	if len(resumed) > 1 {
		sort.Slice(resumed, func(i, j int) bool {
			if resumed[i].Port != resumed[j].Port {
				return resumed[i].Port < resumed[j].Port
			}
			return resumed[i].PG < resumed[j].PG
		})
	}
	return resumed
}
