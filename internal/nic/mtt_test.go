package nic

import (
	"container/list"
	"math/rand"
	"testing"
)

// listLRU is the container/list LRU the MTT's slot array replaced, kept
// as the reference for TestMTTMatchesListLRU.
type listLRU struct {
	entries int
	order   *list.List // front = most recent
	pages   map[int64]*list.Element
}

func (r *listLRU) lookup(page int64) bool {
	if e, ok := r.pages[page]; ok {
		r.order.MoveToFront(e)
		return true
	}
	if r.order.Len() >= r.entries {
		old := r.order.Back()
		r.order.Remove(old)
		delete(r.pages, old.Value.(int64))
	}
	r.pages[page] = r.order.PushFront(page)
	return false
}

// TestMTTMatchesListLRU drives the MTT and the list LRU through the same
// lookups, over page ranges from within the capacity to far beyond it,
// and requires the same hit or miss on every lookup: one recency order,
// one eviction choice.
func TestMTTMatchesListLRU(t *testing.T) {
	const page = 4096
	for _, entries := range []int{1, 2, 3, 8, 64} {
		for _, spread := range []int{entries, 2 * entries, 8 * entries} {
			m := NewMTT(MTTConfig{Entries: entries, PageSize: page, RegionBytes: int64(spread) * page})
			ref := &listLRU{entries: entries, order: list.New(), pages: map[int64]*list.Element{}}
			rng := rand.New(rand.NewSource(int64(entries*1000 + spread)))
			for i := 0; i < 5000; i++ {
				va := rng.Int63n(int64(spread) * page)
				if got, want := m.Lookup(va), ref.lookup(va/page); got != want {
					t.Fatalf("entries %d, spread %d, lookup %d of page %d: hit=%v, reference %v", entries, spread, i, va/page, got, want)
				}
			}
			if len(m.pages) != ref.order.Len() || m.Hits+m.Misses != 5000 {
				t.Fatalf("entries %d, spread %d: %d pages cached and %d lookups counted, reference %d cached",
					entries, spread, len(m.pages), m.Hits+m.Misses, ref.order.Len())
			}
		}
	}
}
