package routing

import "auragen/internal/types"

// Queue is a FIFO of message values consumed by head index: the queue behind
// a routing entry, and the executive's outgoing queue, whose messages are
// built in their slots (Alloc). Consuming advances the head and clears the
// vacated slot, so a consumed message's payload is collectable at once, and
// the backing array is reused from its start whenever the queue drains.
// (Re-slicing from the front, q = q[1:], keeps every consumed slot reachable
// from the array and re-allocates every few appends.) The zero value is an
// empty queue.
type Queue struct {
	buf  []types.Message
	head int
}

// Len returns the number of queued messages.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Live returns the queued messages, oldest first, without consuming them.
// The slice aliases the queue: read it before the next Push, Alloc or Drop.
func (q *Queue) Live() []types.Message { return q.buf[q.head:] }

// Alloc appends a zeroed slot and returns it for the caller to fill in
// place. The pointer is valid until the next Push, Alloc, Drop or Take. Kept
// out of line, so that growing the array stays in this frame and not in
// every caller's.
//
//go:noinline
func (q *Queue) Alloc() *types.Message {
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// Full, and at least half of the array is consumed prefix (a queue
		// that never quite drains): slide the live part down instead of
		// growing. The half bound keeps the copy amortized O(1) per Drop.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, types.Message{})
	return &q.buf[len(q.buf)-1]
}

// Push appends a copy of *v, written straight into its slot.
func (q *Queue) Push(v *types.Message) { *q.Alloc() = *v }

// Drop discards the n oldest messages (n <= Len).
func (q *Queue) Drop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Retain keeps, in order, the queued messages for which keep reports true,
// and discards the rest. keep may rewrite the message it is handed in place;
// it must not touch the queue.
func (q *Queue) Retain(keep func(m *types.Message) bool) {
	live, n := q.Live(), 0
	for i := range live {
		if keep(&live[i]) {
			if n != i {
				live[n] = live[i]
			}
			n++
		}
	}
	clear(live[n:])
	q.buf = q.buf[:q.head+n]
	if n == 0 {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Take removes and returns everything queued; the caller owns the slice.
func (q *Queue) Take() []types.Message {
	live := q.Live()
	*q = Queue{}
	return live
}
