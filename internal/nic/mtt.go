package nic

// MTTConfig models the NIC's memory translation table cache: the paper's
// NIC holds only 2K entries, so at a 4 KB page size just 8 MB of
// registered memory is covered — the root cause of the slow-receiver
// symptom. Raising the page size to 2 MB was the paper's NIC-side
// mitigation.
type MTTConfig struct {
	// Entries is the on-NIC cache capacity (2048 in the paper).
	Entries int
	// PageSize is the translation granularity in bytes (4 KB or 2 MB).
	PageSize int
	// RegionBytes is the registered memory the workload touches.
	RegionBytes int64
}

// MTT is an LRU translation cache. Its entries sit in one slot array,
// linked by index into a circular recency list, so a miss in a full
// cache reuses the least recently used slot and allocates nothing.
type MTT struct {
	cfg   MTTConfig
	slots []mttSlot       // grows to cfg.Entries, then slots are reused
	pages map[int64]int32 // cached page → its slot
	mru   int32           // the most recently used slot; its prev is the LRU

	Hits   uint64
	Misses uint64
}

// mttSlot is one cached translation: prev links toward the MRU end,
// next toward the LRU end, and both wrap around.
type mttSlot struct {
	page       int64
	prev, next int32
}

// NewMTT builds the cache.
func NewMTT(cfg MTTConfig) *MTT {
	if cfg.Entries <= 0 || cfg.PageSize <= 0 {
		panic("nic: invalid MTT config")
	}
	return &MTT{cfg: cfg, pages: make(map[int64]int32)}
}

// Lookup translates a virtual address and reports whether it hit the
// cache. A miss installs the entry, evicting the least recently used.
func (m *MTT) Lookup(va int64) bool {
	page := va / int64(m.cfg.PageSize)
	if i, ok := m.pages[page]; ok {
		if i != m.mru {
			s := &m.slots[i]
			m.slots[s.prev].next = s.next
			m.slots[s.next].prev = s.prev
			m.pushFront(i)
		}
		m.Hits++
		return true
	}
	m.Misses++
	if len(m.slots) < m.cfg.Entries {
		i := int32(len(m.slots))
		m.slots = append(m.slots, mttSlot{page: page, prev: i, next: i})
		if i > 0 {
			m.pushFront(i)
		}
		m.pages[page] = i
		return false
	}
	// Full: the LRU slot takes the new page, and stepping the head back
	// one place around the circle makes it the most recent.
	lru := m.slots[m.mru].prev
	delete(m.pages, m.slots[lru].page)
	m.slots[lru].page = page
	m.mru = lru
	m.pages[page] = lru
	return false
}

// pushFront links unlinked slot i in as the most recently used.
func (m *MTT) pushFront(i int32) {
	lru := m.slots[m.mru].prev
	m.slots[i].prev, m.slots[i].next = lru, m.mru
	m.slots[lru].next = i
	m.slots[m.mru].prev = i
	m.mru = i
}

// Coverage returns the bytes of registered memory the cache can map at
// once.
func (m *MTT) Coverage() int64 { return int64(m.cfg.Entries) * int64(m.cfg.PageSize) }
