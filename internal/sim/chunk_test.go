package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// goWorker spawns fn as a worker process of j, as Join.Go did when chunks
// were processes.
func goWorker(j *Join, name string, fn func(*Proc)) {
	j.n++
	j.eng.Spawn(name, func(q *Proc) {
		defer j.done()
		fn(q)
	})
}

// goChunkProc is the process form of one chunk, as chunks ran before they
// were engine steps: a worker of j that walks path's links.
func goChunkProc(j *Join, path Path, n int) {
	goWorker(j, "chunk", func(q *Proc) {
		for _, h := range path {
			for _, l := range h.Links() {
				l.Transfer(q, n)
			}
		}
	})
}

// mediaStage is a disk write's media stage in miniature: chunks commit once
// posDone fires, one after another, each for a time that depends on its
// tag and size.  It is the Stage of a gated sender's chunks, and the state
// the oracle's processes share.
type mediaStage struct {
	e         *Engine
	posDone   *Event
	perKB     Duration
	mediaFree Time
}

func (m *mediaStage) Gate() *Event { return m.posDone }

func (m *mediaStage) Until(tag int64, n int) Time {
	m.mediaFree = max(m.e.now, m.mediaFree).Add(m.mediaTime(tag, n))
	return m.mediaFree
}

func (m *mediaStage) mediaTime(tag int64, n int) Duration {
	return m.perKB*Duration(n)/1024 + Duration(tag%3)*time.Microsecond
}

// writeChunkProc is the process form of a chunk ending in m: the body of
// the diskwrite-chunk worker disk.Write forked per chunk before its chunks
// were engine steps, with the drive's media time replaced by m's.
func writeChunkProc(j *Join, path Path, bytes int, m *mediaStage, at int64) {
	goWorker(j, "diskwrite-chunk", func(q *Proc) {
		path.Send(q, bytes, 0)
		m.posDone.Wait(q)
		start := q.Now()
		if m.mediaFree > start {
			start = m.mediaFree
		}
		mt := m.mediaTime(at, bytes)
		m.mediaFree = start.Add(mt)
		q.WaitUntil(m.mediaFree)
	})
}

// sendProc is Path.Send in the process form: a worker process per chunk.
func sendProc(p *Proc, path Path, n, chunk int) {
	if n <= chunk {
		path.Send(p, n, chunk)
		return
	}
	j := NewJoin(p.eng)
	for ; n > 0; n -= chunk {
		goChunkProc(j, path, min(n, chunk))
	}
	j.Wait(p)
}

// hookLog records every resource hook without the process it names, which
// is the one thing the two forms of a chunk report differently.
type hookLog struct {
	e     *Engine
	lines []string
}

func (h *hookLog) add(format string, args ...any) {
	h.lines = append(h.lines, fmt.Sprintf("%d ", int64(h.e.now))+fmt.Sprintf(format, args...))
}
func (h *hookLog) ProcStart(*Proc)            {}
func (h *hookLog) ProcFinish(*Proc)           {}
func (h *hookLog) ResourceCreate(string, int) {}
func (h *hookLog) ResourceWait(name string, _ *Proc, depth int) {
	h.add("%s wait depth=%d", name, depth)
}
func (h *hookLog) ResourceAcquire(name string, _ *Proc, units int, waited Duration, queued bool) {
	h.add("%s acquire units=%d waited=%d queued=%v", name, units, int64(waited), queued)
}
func (h *hookLog) ResourceRelease(name string, units int) { h.add("%s release units=%d", name, units) }
func (h *hookLog) Span(*Proc, string, string, Time)       {}

// chunkScene is what a fuzz input decodes to.
type chunkScene struct {
	links   []linkSpec
	senders []senderSpec
	holder  struct {
		link, reps  int
		start, hold Duration
	}
}

type linkSpec struct {
	mbps    float64
	latency Duration
	shared  bool // built on the previous link's server
}

type senderSpec struct {
	start, gap  Duration // gap > 0: start each chunk gap after the last, as a disk read delivers
	n, chunk    int
	first, hops int  // links first, first+1, ... (mod the link count)
	route       bool // the first two links form one Route hop
	gate        *gateSpec
}

// gateSpec makes a sender's chunks end in a mediaStage, as a disk write's
// do: a positioning process fires the gate pos after the sender starts.
type gateSpec struct {
	pos, perKB Duration
	noPath     bool // the chunks cross no link, as a write with no bus path
}

// decodeScene turns fuzz bytes into a scene of 1-4 links, 1-4 senders and a
// process holding a link's server; missing bytes read as zero.
func decodeScene(data []byte) chunkScene {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	var sc chunkScene
	for i, nl := 0, 1+next()%4; i < nl; i++ {
		sc.links = append(sc.links, linkSpec{
			mbps:    float64(1 + next()%40),
			latency: Duration(next()%8) * time.Microsecond,
			shared:  i > 0 && next()%3 == 0,
		})
	}
	for i, ns := 0, 1+next()%4; i < ns; i++ {
		s := senderSpec{
			start: Duration(next()) * 10 * time.Microsecond,
			n:     1 + next()<<9 + next(),
			chunk: (1 + next()%16) * 1024,
			first: next(),
			hops:  1 + next()%4,
			route: next()%2 == 1,
		}
		if g := next(); g%2 == 1 {
			s.gap = Duration(g) * time.Microsecond
		}
		if g := next(); g%2 == 1 {
			s.gate = &gateSpec{
				pos:    Duration(g/2) * 20 * time.Microsecond,
				perKB:  Duration(next()%8) * 10 * time.Microsecond,
				noPath: g%8 == 7,
			}
		}
		sc.senders = append(sc.senders, s)
	}
	sc.holder.link = next()
	sc.holder.reps = next() % 4
	sc.holder.start = Duration(next()) * 20 * time.Microsecond
	sc.holder.hold = Duration(1+next()) * 5 * time.Microsecond
	return sc
}

// runScene plays sc with chunks as engine steps (procs false) or as worker
// processes, and returns the resource-hook log, each sender's finish time,
// and the events dispatched.
func runScene(sc chunkScene, procs bool) ([]string, []Time, uint64, int) {
	e := New()
	log := &hookLog{e: e}
	e.SetTracer(log)
	var links []*Link
	for i, ls := range sc.links {
		if ls.shared {
			links = append(links, links[i-1].srv.Link(ls.mbps, ls.latency))
		} else {
			links = append(links, NewLink(e, fmt.Sprintf("l%d", i), ls.mbps, ls.latency))
		}
	}
	finish := make([]Time, len(sc.senders))
	for i, s := range sc.senders {
		var path Path
		for k := 0; k < s.hops; k++ {
			path = append(path, links[(s.first+k)%len(links)])
		}
		if s.route && len(path) >= 2 {
			path = append(Path{Route{path[0].(*Link), path[1].(*Link)}}, path[2:]...)
		}
		if s.gate != nil && s.gate.noPath {
			path = nil
		}
		e.Spawn("sender", func(p *Proc) {
			p.Wait(s.start)
			var m *mediaStage
			var stage Stage // nil unless m is not
			if g := s.gate; g != nil {
				m = &mediaStage{e: e, posDone: NewEvent(e), perKB: g.perKB}
				stage = m
				e.Spawn("pos", func(q *Proc) {
					q.Wait(g.pos)
					m.posDone.Signal()
				})
			}
			switch {
			case s.gap > 0 || m != nil:
				j := NewJoin(e)
				for at, n := int64(0), s.n; n > 0; at, n = at+1, n-s.chunk {
					switch {
					case procs && m != nil:
						writeChunkProc(j, path, min(n, s.chunk), m, at)
					case procs:
						goChunkProc(j, path, min(n, s.chunk))
					default:
						path.Start(j, min(n, s.chunk), stage, at)
					}
					if s.gap > 0 {
						p.Wait(s.gap)
					}
				}
				j.Wait(p)
			case procs:
				sendProc(p, path, s.n, s.chunk)
			default:
				path.Send(p, s.n, s.chunk)
			}
			finish[i] = p.Now()
		})
	}
	srv := links[sc.holder.link%len(links)].srv
	e.Spawn("holder", func(p *Proc) {
		p.Wait(sc.holder.start)
		for k := 0; k < sc.holder.reps; k++ {
			srv.Acquire(p)
			p.Wait(sc.holder.hold)
			srv.Release()
		}
	})
	e.Run()
	live := e.Live()
	e.Shutdown()
	return log.lines, finish, e.EventsExecuted(), live
}

// FuzzChunkedSend checks that chunks as engine steps are the worker
// processes they replace: identical resource hooks at identical times,
// identical sender finish times and event counts, nothing left live.
// Senders with a gate end their chunks in a mediaStage, against the
// diskwrite-chunk worker's body (writeChunkProc) as the oracle.
func FuzzChunkedSend(f *testing.F) {
	f.Add([]byte{1, 9, 0, 0, 0, 0, 1, 0, 4, 0, 0})
	f.Add([]byte{2, 9, 1, 9, 2, 3, 2, 0, 8, 0, 1, 1, 0, 2, 1, 0, 100, 4, 0, 3, 1, 1, 2, 3, 1})
	f.Add([]byte{1, 9, 0, 9, 1, 0, 1, 0, 40, 200, 3, 0, 1, 0, 0, 9, 2, 0, 20, 100, 1, 1, 1, 0, 15, 5, 0, 1, 40, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScene(data)
		stepLog, stepFin, stepEv, stepLive := runScene(sc, false)
		procLog, procFin, procEv, _ := runScene(sc, true)
		if i := firstDiff(stepLog, procLog); i >= 0 {
			t.Fatalf("scene %+v: hook %d differs:\nsteps:     %s\nprocesses: %s", sc, i, at(stepLog, i), at(procLog, i))
		}
		if !slices.Equal(stepFin, procFin) {
			t.Fatalf("scene %+v: senders finish at %v, processes at %v", sc, stepFin, procFin)
		}
		if stepEv != procEv {
			t.Fatalf("scene %+v: %d events, processes %d", sc, stepEv, procEv)
		}
		if stepLive != 0 {
			t.Fatalf("scene %+v: %d live after Run", sc, stepLive)
		}
	})
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<end>"
}

// pathSendRig is a process sending 32 chunks over three links once every
// period, for the allocation pin and BenchmarkPathSend.
func pathSendRig() (*Engine, Time) {
	const period = Time(20 * time.Millisecond)
	e := New()
	path := Path{NewLink(e, "a", 100, 0), NewLink(e, "b", 80, time.Microsecond), NewLink(e, "c", 100, 0)}
	e.Spawn("sender", func(p *Proc) {
		for {
			path.Send(p, 32*DefaultChunk, 0)
			p.WaitUntil(p.Now() + period - p.Now()%period)
		}
	})
	e.RunUntil(3 * period) // warm: chunk states, queues and the event heap
	return e, period
}

func TestPathSendAllocs(t *testing.T) {
	e, period := pathSendRig()
	next := e.Now()
	spawns := e.Spawns()
	allocs := testing.AllocsPerRun(50, func() {
		next += period
		e.RunUntil(next)
	})
	if n := e.Spawns() - spawns; n != 0 {
		t.Errorf("51 warm 32-chunk Path.Sends spawned %d processes, want 0", n)
	}
	e.Shutdown()
	// The join, its event and the event's waiter list.
	if allocs > 3 {
		t.Fatalf("a warm 32-chunk Path.Send allocates %.1f objects, want <= 3", allocs)
	}
}
