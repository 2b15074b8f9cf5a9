package routing

import "auragen/internal/types"

// Queue is a FIFO of messages consumed by head index: the queue behind a
// routing entry, and the executive's outgoing queue. Consuming advances the
// head and clears the vacated slot, so a consumed message and its payload
// are collectable at once, and the backing array is reused from its start
// whenever the queue drains. (Re-slicing from the front, q = q[1:], keeps
// every consumed pointer reachable from the array and re-allocates every
// few appends.) The zero value is an empty queue.
type Queue struct {
	buf  []*types.Message
	head int
}

// Len returns the number of queued messages.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Live returns the queued messages, oldest first, without consuming them.
// The slice aliases the queue: read it before the next Push or Pop.
func (q *Queue) Live() []*types.Message { return q.buf[q.head:] }

// Push appends m.
func (q *Queue) Push(m *types.Message) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// Full, and at least half of the array is consumed prefix (a queue
		// that never quite drains): slide the live part down instead of
		// growing. The half bound keeps the copy amortized O(1) per Pop.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, m)
}

// Pop removes and returns the oldest message.
func (q *Queue) Pop() (*types.Message, bool) {
	if q.head == len(q.buf) {
		return nil, false
	}
	m := q.buf[q.head]
	q.Drop(1)
	return m, true
}

// Drop discards the n oldest messages (n <= Len).
func (q *Queue) Drop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Take removes and returns everything queued; the caller owns the slice.
func (q *Queue) Take() []*types.Message {
	live := q.Live()
	*q = Queue{}
	return live
}
