package sim

// This file implements the engine's pending-event queue: a 4-ary min-heap
// ordered by (at, seq), stored as a flat value slice.
//
// The queue replaced the PR-1-era container/heap binary heap in PR 9.  The
// standard library's heap interface moves elements through interface{}, so
// every Push and Pop boxed an event on the garbage-collected heap — two
// allocations per scheduled event, which dominated allocation in
// million-event runs.  A concrete value-typed heap performs no boxing: once
// the backing slice reaches the run's high-water mark, scheduling is
// allocation-free.
//
// The 4-ary shape was chosen over an inline binary heap and a calendar
// (bucket) queue by benchmark (BenchmarkEventQueue in queue_bench_test.go):
// halving the tree depth trades one comparison per level for four, which
// wins on sift-down-heavy FIFO workloads because the four children share a
// cache line pair.  A calendar queue was rejected —
// deterministic FIFO among equal timestamps requires ordered buckets, whose
// insertion cost reintroduces the O(n) behaviour the structure is meant to
// avoid, and after this change the queue is no longer the hot path's
// bottleneck (the process hand-off is; see the resume fast path in
// engine.go).

// arity is the heap's branching factor.
const arity = 4

// eventQueue is a 4-ary min-heap of events keyed on (at, seq).  The zero
// value is an empty queue.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

// head returns the earliest pending event without removing it.  The pointer
// is valid only until the next push or pop.
func (q *eventQueue) head() *event { return &q.ev[0] }

// before reports whether a fires before b: earlier timestamp, with the
// schedule sequence number breaking ties so equal-timestamp events keep
// FIFO order.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e, sifting it up to its heap position.
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !before(&q.ev[i], &q.ev[parent]) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// pop removes and returns the earliest pending event.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // release the proc pointer; the slot is reused
	q.ev = q.ev[:n]
	// Sift the displaced element down.
	i := 0
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		last := first + arity
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if before(&q.ev[c], &q.ev[min]) {
				min = c
			}
		}
		if !before(&q.ev[min], &q.ev[i]) {
			break
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
	return top
}
