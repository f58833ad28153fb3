package raid

// Column scratch.  Degraded reads, rebuilds, scrubs, read-modify-writes and
// parity computation all need column-sized working buffers that live for
// one operation.  They come from a free list on the array instead of a
// make per column per stripe.  Every buffer is one stripe unit long
// (the longest column any path touches) and its contents are arbitrary when
// handed out.  The list lives as long as the array and keeps at most
// colFreeStripes stripes' worth of buffers: enough for the rebuild window
// and the foreground requests beside it, while a burst (fifty segment
// writes in flight when a file is laid down) goes back to the collector
// instead of pinning a hundred megabytes per array.

// colFreeStripes bounds the free list, in stripes (one buffer per device).
const colFreeStripes = 8

// scratch is the set of column buffers one operation has drawn.  The
// operation releases them all when it returns, by which time every device
// write that was handed one has completed (devices copy what they store).
type scratch struct {
	a    *Array
	bufs [][]byte
}

func (a *Array) newScratch() *scratch { return &scratch{a: a} }

// col returns an n-byte buffer (n at most one stripe unit) with arbitrary
// contents; the caller must overwrite all of it.
func (s *scratch) col(n int) []byte {
	b := s.a.colFree.Get(s.a.unitSecs * s.a.secSize)
	s.bufs = append(s.bufs, b)
	return b[:n]
}

// unit returns a buffer one stripe unit long.
func (s *scratch) unit() []byte { return s.col(s.a.unitSecs * s.a.secSize) }

// release returns the operation's buffers to the array's free list, up to
// its bound.
func (s *scratch) release() {
	for _, b := range s.bufs {
		s.a.colFree.Put(b)
	}
	s.bufs = nil
}
