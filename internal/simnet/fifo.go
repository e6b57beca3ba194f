package simnet

// fifo is the FIFO queue behind Station and TokenPool: push appends, pop
// advances a head index instead of shifting the slice, so both are O(1)
// amortized. The consumed prefix is reclaimed by compacting the pending
// items to the front once it reaches half the slice, which copies each
// item at most once per time it is dequeued past.
type fifo[T any] struct {
	buf  []T
	head int // buf[:head] has been popped (and zeroed)
}

// len returns the number of pending items.
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// push appends v at the tail.
func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }

// pop removes and returns the oldest item; the queue must be non-empty.
// The vacated slot is zeroed so it holds no closure alive.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf, q.head = q.buf[:0], 0
	case 2*q.head >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	return v
}

// detach empties the queue and returns its pending items in FIFO order.
// The returned slice no longer belongs to the queue, so items pushed
// while the caller walks it land in a fresh buffer.
func (q *fifo[T]) detach() []T {
	pending := q.buf[q.head:]
	q.buf, q.head = nil, 0
	return pending
}
