package sim

import (
	"container/heap"
	"testing"
)

// BenchmarkEventQueue compares the pending-event queue implementations the
// PR-9 rebuild chose between, on the access pattern the engine actually
// generates: a timer-wheel-like steady state where each pop is followed by
// a push slightly in the future, over a queue holding `depth` events.  The
// container/heap variant is the pre-rebuild implementation (boxed through
// interface{}); the 4-ary variant is what engine.go uses.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		depth := depth
		run := func(name string, init func(int), cycle func(i int)) {
			b.Run(name, func(b *testing.B) {
				init(depth)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle(i)
				}
			})
		}

		var q eventQueue
		run("4ary/depth="+itoa(depth), func(n int) {
			q = eventQueue{}
			for i := 0; i < n; i++ {
				q.push(event{at: Time(i), seq: uint64(i)})
			}
		}, func(i int) {
			ev := q.pop()
			ev.at += Time(depth)
			ev.seq = uint64(i + depth)
			q.push(ev)
		})

		var ref refQueue
		run("containerheap/depth="+itoa(depth), func(n int) {
			ref = refQueue{}
			for i := 0; i < n; i++ {
				heap.Push(&ref, event{at: Time(i), seq: uint64(i)})
			}
		}, func(i int) {
			ev := heap.Pop(&ref).(event)
			ev.at += Time(depth)
			ev.seq = uint64(i + depth)
			heap.Push(&ref, ev)
		})
	}
}

// itoa avoids strconv in the hot benchmark loop setup.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
