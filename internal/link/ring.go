package link

// Ring is a FIFO over a circular buffer whose length is zero or a power
// of two, so a position is masked rather than divided. Push doubles the
// buffer when it is full, copying the items out in FIFO order; nothing
// shrinks it but Purge. The zero Ring is empty and ready to use, and its
// header is 32 bytes. Every frame queue in the simulator is one: the
// egress data and control queues, the switch forwarding pipeline and the
// NIC receive queue.
type Ring[T any] struct {
	buf  []T
	head uint32 // index of the oldest item
	n    uint32 // number of items
}

// ringMin is the capacity of a ring's first buffer.
const ringMin = 4

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return int(r.n) }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&uint32(len(r.buf)-1)] = v
	r.n++
}

// Front returns the oldest item in place; the ring must not be empty.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Pop removes and returns the oldest item; the ring must not be empty.
// The vacated slot is zeroed, so the ring holds no reference to it.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("link: pop from an empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & uint32(len(r.buf)-1)
	r.n--
	return v
}

// Purge empties the ring and returns its items in FIFO order. The ring
// lets go of its buffer, which the result may share.
func (r *Ring[T]) Purge() []T {
	h, n := int(r.head), int(r.n)
	var out []T
	switch {
	case n == 0:
	case h+n <= len(r.buf):
		out = r.buf[h : h+n]
	default: // the items wrap the end of the buffer
		out = append(append(make([]T, 0, n), r.buf[h:]...), r.buf[:h+n-len(r.buf)]...)
	}
	*r = Ring[T]{}
	return out
}

// grow doubles the buffer, unwrapping the items to its start.
func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = ringMin
	}
	buf := make([]T, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
