// Package eventq implements the deterministic priority queue that orders
// events in the discrete-event simulator and background refreshes in the
// live proxy (which maps wall-clock instants onto the simulated timeline).
// Items are dequeued in nondecreasing time order; items scheduled for the
// same instant are dequeued in the order they were inserted (FIFO), which
// makes every simulation run fully deterministic.
package eventq

import (
	"container/heap"

	"broadway/internal/simtime"
)

// Item is a scheduled entry in the queue.
type Item struct {
	// At is the instant the item fires.
	At simtime.Time
	// Payload is the caller's event data.
	Payload any

	seq   uint64 // insertion order, breaks ties deterministically
	index int    // position in the heap; -1 once removed
}

// Queue is a time-ordered event queue. The zero value is ready to use.
// Queue is not safe for concurrent use: the simulator is single-threaded
// by design, and the live proxy guards its queue with a mutex.
type Queue struct {
	h       itemHeap
	nextSeq uint64
}

// Len returns the number of pending items.
func (q *Queue) Len() int { return len(q.h) }

// Push schedules payload to fire at the given instant and returns a handle
// that can later be passed to Remove.
func (q *Queue) Push(at simtime.Time, payload any) *Item {
	it := &Item{At: at, Payload: payload, seq: q.nextSeq}
	q.nextSeq++
	heap.Push(&q.h, it)
	return it
}

// Pop removes and returns the earliest item. It returns nil when the queue
// is empty.
func (q *Queue) Pop() *Item {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*Item)
}

// Peek returns the earliest item without removing it, or nil when empty.
func (q *Queue) Peek() *Item {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// PopDue removes and returns the earliest item if it is due at now
// (At <= now); otherwise it returns nil and leaves the queue untouched.
func (q *Queue) PopDue(now simtime.Time) *Item {
	if len(q.h) == 0 || q.h[0].At > now {
		return nil
	}
	return heap.Pop(&q.h).(*Item)
}

// Remove cancels a previously pushed item. It reports whether the item was
// still pending. Removing an item twice is safe and returns false.
func (q *Queue) Remove(it *Item) bool {
	if !q.pending(it) {
		return false
	}
	heap.Remove(&q.h, it.index)
	return true
}

// Reschedule moves a pending item to a new instant, restoring queue order
// in O(log n). It reports whether the item was still pending. The item
// keeps its insertion rank, so ties at the new instant still break in
// the order the items were first pushed.
func (q *Queue) Reschedule(it *Item, at simtime.Time) bool {
	if !q.pending(it) {
		return false
	}
	it.At = at
	heap.Fix(&q.h, it.index)
	return true
}

// pending reports whether it is still queued.
func (q *Queue) pending(it *Item) bool {
	return it != nil && it.index >= 0 && it.index < len(q.h) && q.h[it.index] == it
}

// itemHeap implements heap.Interface ordered by (At, seq).
type itemHeap []*Item

var _ heap.Interface = (*itemHeap)(nil)

func (h itemHeap) Len() int { return len(h) }

func (h itemHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h itemHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *itemHeap) Push(x any) {
	it := x.(*Item)
	it.index = len(*h)
	*h = append(*h, it)
}

func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = -1
	*h = old[:n-1]
	return it
}
