package routing

// Queue is a FIFO consumed by head index: Queue[types.Message] behind a
// routing entry, holding each arrived message by value in its slot, and
// Queue[*types.Message] as the executive's outgoing queue. Consuming
// advances the head and clears the vacated slot, so a consumed message's
// payload is collectable at once, and the backing array is reused from its
// start whenever the queue drains. (Re-slicing from the front, q = q[1:],
// keeps every consumed slot reachable from the array and re-allocates every
// few appends.) The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Live returns the queued elements, oldest first, without consuming them.
// The slice aliases the queue: read it before the next Push or Drop.
func (q *Queue[T]) Live() []T { return q.buf[q.head:] }

// Push appends a copy of *v. It takes a pointer and is kept out of line so
// that a caller's message is copied once, straight into its slot, and the
// temporary a by-value argument needs lives in this frame, not in every
// caller's.
//
//go:noinline
func (q *Queue[T]) Push(v *T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// Full, and at least half of the array is consumed prefix (a queue
		// that never quite drains): slide the live part down instead of
		// growing. The half bound keeps the copy amortized O(1) per Drop.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, *v)
}

// Drop discards the n oldest elements (n <= Len).
func (q *Queue[T]) Drop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Take removes and returns everything queued; the caller owns the slice.
func (q *Queue[T]) Take() []T {
	live := q.Live()
	*q = Queue[T]{}
	return live
}
