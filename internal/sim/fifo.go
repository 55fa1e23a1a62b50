package sim

// FIFO is a first-in first-out queue that reuses its backing array: Pop
// advances a head index instead of reslicing, and the queue rewinds to
// the start of the array whenever it drains, so a queue whose length
// stays bounded stops allocating once it has grown. The zero value is an
// empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len reports the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) { q.items = append(q.items, v) }

// Pop removes and returns the oldest item; ok is false when empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}
