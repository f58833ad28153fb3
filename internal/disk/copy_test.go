package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"raidii/internal/sim"
)

// TestOffloadedCopiesKeepIssueOrder mixes page-size and smaller writes and
// reads over overlapping sectors of one drive, one process per command, all
// queued on the actuator at once; reads cross a slow path, so a read is
// still delivering while the commands after it are granted.  The actuator
// is FIFO, so command i is granted i-th, and each read must return what a
// flat byte slice holds after the writes granted before it.  At every grant
// each earlier read's buffer already holds its bytes: no earlier command's
// copy is still queued.  One P makes every join take its copy back; four
// let the worker run beside the engine.
func TestOffloadedCopiesKeepIssueOrder(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			e := sim.New()
			d := mustNew(t, e, "d0", IBM0661())
			ss := d.SectorSize()
			const span = 4 * pageBytes
			oracle := make([]byte, span)
			rng := rand.New(rand.NewSource(int64(procs)))
			type cmd struct {
				write     bool
				lba       int64
				data, got []byte
				want      []byte
			}
			var cmds []*cmd
			for i := 0; i < 60; i++ {
				n := (1 + rng.Intn(8)) * ss // smaller than a page
				if rng.Intn(2) == 0 {
					n = (pageBytes/ss + rng.Intn(pageBytes/ss)) * ss // a page or more
				}
				c := &cmd{write: rng.Intn(2) == 0, lba: int64(rng.Intn((span - n) / ss))}
				off := int(c.lba) * ss
				if c.write {
					c.data = make([]byte, n)
					for j := range c.data {
						c.data[j] = byte(rng.Intn(256))
					}
					copy(oracle[off:], c.data)
				} else {
					c.want = bytes.Clone(oracle[off : off+n])
					c.got = bytes.Repeat([]byte{0xee}, n)
				}
				cmds = append(cmds, c)
			}
			granted := 0
			e.SetTracer(grantCheck{"d0:actuator", func() {
				for i, c := range cmds[:granted] {
					if !c.write && !bytes.Equal(c.got, c.want) {
						t.Errorf("command %d is granted while read %d's copy is still queued", granted, i)
					}
				}
				granted++
			}})
			slow := sim.Path{sim.NewLink(e, "bus", 2, 0)}
			for i, c := range cmds {
				e.Spawn("cmd", func(p *sim.Proc) {
					p.Wait(time.Duration(i)) // arrive at the actuator in order
					var err error
					if c.write {
						err = d.Write(p, c.lba, c.data, nil)
					} else {
						err = d.ReadInto(p, c.lba, c.got, slow)
					}
					if err != nil {
						t.Error(err)
					}
				})
			}
			e.Run()
			for i, c := range cmds {
				if !c.write && !bytes.Equal(c.got, c.want) {
					t.Errorf("read %d (%d bytes at sector %d) differs from the oracle", i, len(c.got), c.lba)
				}
			}
			if got := d.ReadData(0, span/ss); !bytes.Equal(got, oracle) {
				t.Error("the drive's contents differ from the oracle after every command")
			}
		})
	}
}

// grantCheck is a sim.Tracer that calls check at each grant of resource name.
type grantCheck struct {
	name  string
	check func()
}

func (grantCheck) ProcStart(*sim.Proc)                      {}
func (grantCheck) ProcFinish(*sim.Proc)                     {}
func (grantCheck) ResourceCreate(string, int)               {}
func (grantCheck) ResourceWait(string, *sim.Proc, int)      {}
func (grantCheck) ResourceRelease(string, int)              {}
func (grantCheck) Span(*sim.Proc, string, string, sim.Time) {}
func (g grantCheck) ResourceAcquire(name string, _ *sim.Proc, _ int, _ sim.Duration, _ bool) {
	if name == g.name {
		g.check()
	}
}

// TestReadTakesBytesAtGrant: a read's bytes are the drive's contents at its
// actuator grant.  A write to the same sectors, queued behind the read,
// completes while the read's last chunks still cross a slow path, and the
// read returns the old bytes all the same, offloaded or inline.
func TestReadTakesBytesAtGrant(t *testing.T) {
	for _, n := range []int{2 * pageBytes, 8 * 512} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			e := sim.New()
			d := mustNew(t, e, "d0", IBM0661())
			old := bytes.Repeat([]byte{0x11}, n)
			d.WriteData(100, old)
			// 64 KB/s: the read's delivery tail outlasts the queued write.
			slow := sim.Path{sim.NewLink(e, "bus", 0.064, 0)}
			got := make([]byte, n)
			var readEnd, writeEnd sim.Time
			e.Spawn("read", func(p *sim.Proc) {
				if err := d.ReadInto(p, 100, got, slow); err != nil {
					t.Error(err)
				}
				readEnd = p.Now()
			})
			e.Spawn("write", func(p *sim.Proc) {
				p.Wait(time.Microsecond) // queued behind the read
				if err := d.Write(p, 100, bytes.Repeat([]byte{0x22}, n), nil); err != nil {
					t.Error(err)
				}
				writeEnd = p.Now()
			})
			e.Run()
			if writeEnd >= readEnd {
				t.Fatalf("the write ended at %v, not inside the read's delivery tail (read ended %v)", writeEnd, readEnd)
			}
			if !bytes.Equal(got, old) {
				t.Error("a write granted after the read changed the bytes it returned")
			}
		})
	}
}

// TestDiskCopyAllocs: once its pages are materialized, a warm drive's
// page-size reads and writes allocate nothing for their copies, whether the
// worker runs them or a join takes them back: a 4-page command allocates no
// more than a 1-page one.
func TestDiskCopyAllocs(t *testing.T) {
	const period = sim.Time(time.Second)
	measure := func(pages int) float64 {
		e := sim.New()
		d := mustNew(t, e, "d0", IBM0661())
		data := bytes.Repeat([]byte{0x5a}, pages*pageBytes)
		dst := make([]byte, len(data))
		e.Spawn("rw", func(p *sim.Proc) {
			for {
				if err := d.Write(p, 0, data, nil); err != nil {
					t.Error(err)
				}
				if err := d.ReadInto(p, 0, dst, nil); err != nil {
					t.Error(err)
				}
				p.WaitUntil(p.Now() + period - p.Now()%period)
			}
		})
		e.RunUntil(3 * period) // warm: pages, process shells
		next := e.Now()
		allocs := testing.AllocsPerRun(50, func() {
			next += period
			e.RunUntil(next)
		})
		e.Shutdown()
		return allocs
	}
	if a1, a4 := measure(1), measure(4); a4 > a1 {
		t.Errorf("a warm 4-page write and read allocate %.1f objects, 1-page ones %.1f: the copies allocate", a4, a1)
	}
	ps := newPagestore(4 * pageBytes)
	buf := make([]byte, 2*pageBytes)
	ps.WriteAt(buf, 0) // zeros: no page materializes
	buf[0] = 1
	ps.start(buf, 0, true)
	ps.join()
	if n := testing.AllocsPerRun(50, func() {
		ps.start(buf, pageBytes, true)
		ps.join()
		ps.start(buf, 0, false)
		ps.join()
	}); n != 0 {
		t.Errorf("a warm offloaded write and read allocate %v objects, want 0", n)
	}
}

// TestShutdownLeavesNoCopyWorker shuts an engine down while a write's
// offloaded copy is in flight: the process that started it never joins it,
// yet the copy runs and its worker exits.
func TestShutdownLeavesNoCopyWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	e := sim.New()
	d := mustNew(t, e, "d0", IBM0661())
	data := bytes.Repeat([]byte{0x77}, 4*pageBytes)
	slow := sim.Path{sim.NewLink(e, "bus", 1, 0)}
	e.Spawn("write", func(p *sim.Proc) {
		if err := d.Write(p, 0, data, slow); err != nil {
			t.Error(err)
		}
		t.Error("the write completed before Shutdown")
	})
	e.RunUntil(sim.Time(10 * time.Millisecond))
	e.Shutdown()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Shutdown and the drain", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
	if !bytes.Equal(d.ReadData(0, len(data)/d.SectorSize()), data) {
		t.Error("the copy taken at grant did not reach the store")
	}
}
