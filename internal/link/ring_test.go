package link

import (
	"slices"
	"testing"
)

// FuzzRing drives a Ring and a plain slice through the same pushes,
// pops, fronts and purges, one operation per input byte, and requires
// them to agree after every operation: the length, every live item in
// FIFO order, the value Front and Pop return and the items Purge
// returns. The buffer must stay a power of two at least as long as the
// ring, every slot outside the live range must be zero (a popped frame
// is not kept reachable), and a purged slice must not change as the
// ring is refilled. The seed corpus covers growth while the live range
// wraps the end of the buffer and a purge of a wrapped ring.
func FuzzRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		var r Ring[int]
		var model, purged, purgedWant []int
		next := 1 // pushed values count up from 1, so 0 marks an empty slot
		for step, op := range ops {
			switch op & 7 {
			case 0, 1, 2, 3:
				r.Push(next)
				model = append(model, next)
				next++
			case 4, 5:
				if len(model) == 0 {
					continue
				}
				if got := r.Pop(); got != model[0] {
					t.Fatalf("step %d: Pop %d, want %d", step, got, model[0])
				}
				model = model[1:]
			case 6:
				if len(model) == 0 {
					continue
				}
				if got := *r.Front(); got != model[0] {
					t.Fatalf("step %d: Front %d, want %d", step, got, model[0])
				}
			case 7:
				purged, purgedWant = r.Purge(), slices.Clone(model)
				if !slices.Equal(purged, purgedWant) {
					t.Fatalf("step %d: Purge %v, want %v", step, purged, purgedWant)
				}
				model = nil
			}
			checkRing(t, step, &r, model)
			if !slices.Equal(purged, purgedWant) {
				t.Fatalf("step %d: an earlier purge's items changed to %v, want %v", step, purged, purgedWant)
			}
		}
	})
}

// checkRing compares r's buffer with the model, slot by slot.
func checkRing(t *testing.T, step int, r *Ring[int], model []int) {
	t.Helper()
	size := len(r.buf)
	if r.Len() != len(model) || size < len(model) || size&(size-1) != 0 {
		t.Fatalf("step %d: Len %d over a buffer of %d, want %d items in a power of two", step, r.Len(), size, len(model))
	}
	for i := 0; i < size; i++ {
		pos := (i - int(r.head) + size) % size // slot i's place in FIFO order
		want := 0
		if pos < len(model) {
			want = model[pos]
		}
		if r.buf[i] != want {
			t.Fatalf("step %d: slot %d (FIFO place %d) holds %d, want %d", step, i, pos, r.buf[i], want)
		}
	}
}
