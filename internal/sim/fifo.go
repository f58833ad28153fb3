package sim

// fifo is a growable ring buffer with FIFO semantics: Server's wait queue.
// A slice popped with q = q[1:] marches its backing array forward so every
// later append reallocates; the ring reuses its backing array, so
// steady-state queueing — like steady-state scheduling — allocates nothing
// once a queue has reached its high-water mark.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (f *fifo[T]) len() int { return f.n }

// push appends v at the tail.
func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = v
	f.n++
}

// pop removes and returns the head.  The vacated slot is zeroed so the ring
// does not retain pointers past the element's dequeue.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// peek returns a pointer to the head element, valid until the next push or
// pop.
func (f *fifo[T]) peek() *T { return &f.buf[f.head] }

// grow doubles the backing array (power-of-two sizes keep the index mask
// cheap) and compacts the live elements to its start.
func (f *fifo[T]) grow() {
	nb := make([]T, max(2*len(f.buf), 8))
	for i := 0; i < f.n; i++ {
		nb[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf, f.head = nb, 0
}
