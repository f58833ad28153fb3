package raid

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// failSets returns every set of at most m devices of a width-wide array.
func failSets(width, m int) [][]int {
	sets := [][]int{nil}
	for i := 0; i < width && m >= 1; i++ {
		sets = append(sets, []int{i})
		for j := i + 1; j < width && m >= 2; j++ {
			sets = append(sets, []int{i, j})
		}
	}
	return sets
}

// TestStripeCodeProperty drives the one stripe code over levels {3, 5, 6} x
// widths {4, 5, 6} x every set of at most m failed devices: seeded writes of
// every shape the planner distinguishes (full stripe, wide partial, narrow
// partial, sub-unit, stripe-straddling) against a flat byte-slice oracle, read
// back degraded after every write; then each failed device is rebuilt,
// everything is read back healthy, CheckParity finds nothing and a full scrub
// pass repairs nothing.
func TestStripeCodeProperty(t *testing.T) {
	for _, level := range []Level{Level3, Level5, Level6} {
		for width := 4; width <= 6; width++ {
			for _, failed := range failSets(width, levels[level].checks) {
				t.Run(fmt.Sprintf("%v/w%d/fail%v", level, width, failed), func(t *testing.T) {
					stripeCodeProperty(t, level, width, failed)
				})
			}
		}
	}
}

func stripeCodeProperty(t *testing.T, level Level, width int, failed []int) {
	e := sim.New()
	defer e.Shutdown()
	a, _ := newArray(t, e, width, level)
	rng := rand.New(rand.NewSource(int64(level)*1000 + int64(width)*100 + int64(len(failed))))
	u, k := int64(a.StripeUnitSectors()), int64(a.DataDisks())
	S := k * u
	stripes := a.Sectors() / S
	oracle := make([]byte, a.Sectors()*tSec)
	partial := min(u-1, 1) // 1 when a unit can be partly written

	write := func(p *sim.Proc, shape string, lba, n int64) {
		data := make([]byte, n*tSec)
		_, _ = rng.Read(data) // math/rand: never fails
		if err := a.Write(p, lba, data); err != nil {
			t.Fatalf("%s write [%d,+%d): %v", shape, lba, n, err)
		}
		copy(oracle[lba*tSec:], data)
		// Read back a window around the write: over the degraded path when
		// devices are down, and across the neighbouring stripes' columns.
		lo, hi := max(lba-S, 0), min(lba+n+S, a.Sectors())
		got, err := a.Read(p, lo, int(hi-lo))
		if err != nil {
			t.Fatalf("read after %s write: %v", shape, err)
		}
		if !bytes.Equal(got, oracle[lo*tSec:hi*tSec]) {
			t.Fatalf("read after %s write [%d,+%d) returned wrong bytes", shape, lba, n)
		}
	}
	checkAll := func(p *sim.Proc, when string) {
		got, err := a.Read(p, 0, int(a.Sectors()))
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !bytes.Equal(got, oracle) {
			t.Fatalf("%s: contents differ from the oracle", when)
		}
	}

	runProc(e, func(p *sim.Proc) {
		write(p, "seed", 0, a.Sectors())
		for _, d := range failed {
			if err := a.FailDisk(d); err != nil {
				t.Fatal(err)
			}
		}
		// Several rounds, so the rotation puts the failed devices under every
		// role: written column, untouched column, P, Q.
		for round := 0; round < 2*width; round++ {
			s := 1 + rng.Int63n(stripes-2)
			c := rng.Int63n(k)
			write(p, "full-stripe", s*S, S)
			write(p, "wide partial", s*S+partial, S-2*partial-(1-partial))
			write(p, "narrow partial", s*S+c*u, u)
			write(p, "sub-unit", s*S+c*u+rng.Int63n(u), 1)
			write(p, "two-column", s*S+max(c, 1)*u-1, 2)
			write(p, "stripe-straddling", s*S-1, 2)
			write(p, "multi-stripe", s*S-1, S+2)
		}
		checkAll(p, "degraded read-back")
		if a.Lost() {
			t.Fatal("failures within redundancy lost the array")
		}

		for _, d := range failed {
			if _, err := a.Reconstruct(p, d, NewMemDev(256, tSec)); err != nil {
				t.Fatalf("rebuild of device %d: %v", d, err)
			}
		}
		checkAll(p, "read-back after rebuild")
		if bad := a.CheckParity(p); bad != 0 {
			t.Fatalf("%d inconsistent stripes after rebuild", bad)
		}
		sc, err := a.StartScrub(ScrubConfig{Interval: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		if scrubbed, repairs := sc.Wait(p); repairs != 0 || int64(scrubbed) != a.stripes {
			t.Fatalf("scrub verified %d of %d stripes with %d repairs, want all and none", scrubbed, a.stripes, repairs)
		}
	})
	st := a.Stats()
	if len(failed) == 0 && (st.DegradedReads != 0 || st.DeviceErrors != 0) {
		t.Fatalf("healthy run took degraded paths: %+v", st)
	}
	for _, d := range failed {
		// Level 3's fixed parity device holds no data to read degraded.
		if (levels[level].rotated || int64(d) < k) && st.DegradedReads == 0 {
			t.Fatal("degraded run served no degraded reads")
		}
	}
	if st.FullStripeWrites == 0 || st.SmallWrites+st.ReconstructWrites == 0 {
		t.Fatalf("write plans not all exercised: %+v", st)
	}
}

// rebuildRig is an array of MemDevs behind slow devices, filled with known
// bytes, with one device failed and a spare ready.
type rebuildRig struct {
	e       *sim.Engine
	a       *Array
	oracle  []byte
	spare   Dev
	written int64 // the leading stripes the fill wrote; the rest hold zeros
}

const rigFailed = 2

// newRebuildRig builds the rig over devices of the given number of sectors,
// with every stripe written, or with only the first half written when half is
// set.
func newRebuildRig(t *testing.T, level Level, sectors int64, slow func(i int, m *MemDev) Dev, half bool) *rebuildRig {
	t.Helper()
	r := &rebuildRig{e: sim.New()}
	devs := make([]Dev, 6)
	for i := range devs {
		devs[i] = slow(i, NewMemDev(sectors, tSec))
	}
	var err error
	if r.a, err = New(r.e, devs, Config{Level: level, StripeUnitSectors: tUnit}, nil); err != nil {
		t.Fatal(err)
	}
	r.written = r.a.stripes
	if half {
		r.written /= 2
	}
	r.oracle = make([]byte, r.a.Sectors()*tSec)
	fill := patterned(int(r.written*r.stripeSectors())*tSec, byte(level))
	copy(r.oracle, fill)
	runProc(r.e, func(p *sim.Proc) {
		if err := r.a.Write(p, 0, fill); err != nil {
			t.Fatal(err)
		}
	})
	if err := r.a.FailDisk(rigFailed); err != nil {
		t.Fatal(err)
	}
	r.spare = slow(len(devs), NewMemDev(sectors, tSec))
	return r
}

// stripeSectors is the number of logical sectors in one stripe.
func (r *rebuildRig) stripeSectors() int64 {
	return int64(r.a.DataDisks() * r.a.StripeUnitSectors())
}

// write writes data at lba and records it in the oracle.
func (r *rebuildRig) write(t *testing.T, p *sim.Proc, lba int64, data []byte) {
	t.Helper()
	if err := r.a.Write(p, lba, data); err != nil {
		t.Errorf("write: %v", err)
		return
	}
	copy(r.oracle[lba*tSec:], data)
}

// verify checks, after the rebuild and every writer have finished, that the
// array is healthy and holds exactly what was written.
func (r *rebuildRig) verify(t *testing.T) {
	t.Helper()
	if r.a.Failed(rigFailed) || r.a.Lost() {
		t.Fatal("array not healthy after the rebuild")
	}
	runProc(r.e, func(p *sim.Proc) {
		got, err := r.a.Read(p, 0, int(r.a.Sectors()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, r.oracle) {
			t.Fatal("a write that landed during the rebuild was lost: read-back differs from what was written")
		}
		if bad := r.a.CheckParity(p); bad != 0 {
			t.Fatalf("CheckParity = %d after rebuild under writes", bad)
		}
	})
}

// rebuildLevels are the levels whose rebuild must survive concurrent writes:
// the three parity levels, and the mirror row through the same protocol.
var rebuildLevels = []Level{Level1, Level3, Level5, Level6}

// TestWriteDuringRebuildFixedDelay: six devices behind 10 ms delays, a rebuild
// that takes 80 ms, and one full-stripe write to stripe 0 at +45 ms — after
// the rebuild has passed that stripe.  The write must reach the spare: at the
// parent commit it skipped the failed-marked device, the spare kept the old
// column, and the swap-in brought it live.
func TestWriteDuringRebuildFixedDelay(t *testing.T) {
	for _, level := range rebuildLevels {
		t.Run(level.String(), func(t *testing.T) {
			r := newRebuildRig(t, level, 64, func(_ int, m *MemDev) Dev {
				return &slowDev{MemDev: m, delay: 10 * time.Millisecond}
			}, false)
			defer r.e.Shutdown()
			start := r.e.Now()
			r.e.Spawn("rebuild", func(p *sim.Proc) {
				if _, err := r.a.Reconstruct(p, rigFailed, r.spare); err != nil {
					t.Errorf("rebuild: %v", err)
				}
			})
			n := r.a.DataDisks() * r.a.StripeUnitSectors()
			update := patterned(n*tSec, 201)
			r.e.At(start.Add(sim.Duration(45*time.Millisecond)), "writer", func(p *sim.Proc) {
				if err := r.a.Write(p, 0, update); err != nil {
					t.Errorf("write: %v", err)
				}
				copy(r.oracle, update)
			})
			r.e.Run()
			r.verify(t)
		})
	}
}

// TestWritesDuringRebuildJittered: jittered device delays and two sustained
// writers of random one- and two-sector writes for as long as the rebuild
// runs, over twenty seeds.  The writers own alternate two-sector blocks, so
// they contend for the same stripes without overlapping bytes and a plain
// oracle stays exact.  At the parent commit this loses writes, and panics
// "XOR sources of unequal length" when the swap-in lands between a
// read-modify-write's read and fold phases.  Simulated time is bounded: the
// rebuild must finish under a sustained writer.
func TestWritesDuringRebuildJittered(t *testing.T) {
	for _, level := range rebuildLevels {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", level, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newRebuildRig(t, level, 64, func(i int, m *MemDev) Dev {
					return &slowDev{MemDev: m, delay: 2 * time.Millisecond, jitter: 8 * time.Millisecond,
						rng: rand.New(rand.NewSource(seed*100 + int64(i)))}
				}, false)
				defer r.e.Shutdown()
				rebuilt, writers := false, 0
				r.e.Spawn("rebuild", func(p *sim.Proc) {
					if _, err := r.a.Reconstruct(p, rigFailed, r.spare); err != nil {
						t.Errorf("rebuild: %v", err)
					}
					rebuilt = true
				})
				blocks := r.a.Sectors() / 2
				for w := int64(0); w < 2; w++ {
					wrng := rand.New(rand.NewSource(rng.Int63()))
					r.e.Spawn("writer", func(p *sim.Proc) {
						for !rebuilt {
							lba := 2 * (2*wrng.Int63n(blocks/2) + w) // a block this writer owns
							n := 1 + wrng.Int63n(2)
							lba += wrng.Int63n(3 - n)
							data := make([]byte, n*tSec)
							_, _ = wrng.Read(data) // math/rand: never fails
							if err := r.a.Write(p, lba, data); err != nil {
								t.Errorf("write: %v", err)
								return
							}
							copy(r.oracle[lba*tSec:], data)
							p.Wait(time.Duration(wrng.Int63n(int64(5 * time.Millisecond))))
						}
						writers++
					})
				}
				r.e.RunUntil(r.e.Now().Add(sim.Duration(5 * time.Second)))
				if !rebuilt || writers != 2 {
					t.Fatalf("not finished within 5 s of simulated time: rebuilt=%v, writers done=%d", rebuilt, writers)
				}
				r.verify(t)
			})
		}
	}
}

// TestWriteToSkippedStripeLandsOnSpare: on a half-written array behind 10 ms
// devices, writes reach two never-written stripes after the rebuild loop has
// marked them done without I/O, while it still rebuilds the written half: a
// full-stripe write, and a one-sector write to the failed device's column
// (or, where that column is a check column, to data column 0).  Both must
// land on the spare, so the swap-in serves them.
func TestWriteToSkippedStripeLandsOnSpare(t *testing.T) {
	for _, level := range rebuildLevels {
		t.Run(level.String(), func(t *testing.T) {
			r := newRebuildRig(t, level, 64, func(_ int, m *MemDev) Dev {
				return &slowDev{MemDev: m, delay: 10 * time.Millisecond}
			}, true)
			defer r.e.Shutdown()
			r.e.Spawn("rebuild", func(p *sim.Proc) {
				if _, err := r.a.Reconstruct(p, rigFailed, r.spare); err != nil {
					t.Errorf("rebuild: %v", err)
				}
			})
			S, last := r.stripeSectors(), r.a.stripes-1
			write := func(p *sim.Proc, lba int64, data []byte) {
				if rb := r.a.rebuilds[rigFailed]; rb == nil || !rb.done(lba/S) {
					t.Errorf("stripe %d: the write did not start after the rebuild loop passed it", lba/S)
				}
				r.write(t, p, lba, data)
			}
			r.e.Spawn("writer", func(p *sim.Proc) {
				for rb := r.a.rebuilds[rigFailed]; rb == nil || !rb.done(last); rb = r.a.rebuilds[rigFailed] {
					if !r.a.Failed(rigFailed) {
						t.Error("the rebuild finished before its loop passed the last stripe")
						return
					}
					p.Wait(time.Millisecond)
				}
				write(p, last*S, patterned(int(S)*tSec, 77))
				pos := r.a.Role(last-1, rigFailed)
				if r.a.row.mirrored {
					pos /= 2
				} else if pos >= r.a.DataDisks() {
					pos = 0
				}
				write(p, (last-1)*S+int64(pos*r.a.StripeUnitSectors()), patterned(tSec, 78))
			})
			r.e.Run()
			if got := r.a.Stats().RebuildStripes; got != uint64(r.written) {
				t.Errorf("RebuildStripes = %d, want the %d written stripes", got, r.written)
			}
			r.verify(t)
		})
	}
}

// TestWriteAheadOfRebuildIsRebuilt: on a half-written rig, full-stripe writes
// reach never-written stripes around the moment the rebuild loop gets to
// them.  The loop reaches the first never-written stripe T after its start,
// when the last written stripe takes its read slot.  Read slots come free in
// the rhythm of the spare's runs, so T is measured: it is when the survivor
// reads of the last written stripe begin on an identical rig that takes no
// writes.  A write issued at T-15 ms has finished by then (every command
// takes 10 ms), and one issued at T-5 ms is still in flight.  Both began
// ahead of the loop, so it stops at their stripes until read slots free and
// rebuilds them like any written stripe.  A third write, issued at T+25 ms to
// the next stripe, comes after the loop and lands on the spare.
func TestWriteAheadOfRebuildIsRebuilt(t *testing.T) {
	for _, level := range rebuildLevels {
		t.Run(level.String(), func(t *testing.T) {
			T := lastWrittenStripeRead(t, level)
			r := newRebuildRig(t, level, aheadRigSectors, func(_ int, m *MemDev) Dev {
				return &slowDev{MemDev: m, delay: 10 * time.Millisecond}
			}, true)
			defer r.e.Shutdown()
			start := r.e.Now()
			r.e.Spawn("rebuild", func(p *sim.Proc) {
				if _, err := r.a.Reconstruct(p, rigFailed, r.spare); err != nil {
					t.Errorf("rebuild: %v", err)
				}
			})
			S, first := r.stripeSectors(), r.written
			for _, w := range []struct {
				stripe int64
				at     time.Duration
				ahead  bool
			}{{first + 1, T - 15*time.Millisecond, true}, {first, T - 5*time.Millisecond, true}, {first + 2, T + 25*time.Millisecond, false}} {
				r.e.At(start.Add(sim.Duration(w.at)), "writer", func(p *sim.Proc) {
					rb := r.a.rebuilds[rigFailed]
					if ahead := rb != nil && !rb.done(w.stripe); ahead != w.ahead {
						t.Errorf("stripe %d written at %v: ahead of the rebuild loop = %v, want %v", w.stripe, w.at, ahead, w.ahead)
					}
					r.write(t, p, w.stripe*S, patterned(int(S)*tSec, byte(w.stripe)))
				})
			}
			r.e.Run()
			if got := r.a.Stats().RebuildStripes; got != uint64(r.written)+2 {
				t.Errorf("RebuildStripes = %d, want the %d written stripes and the 2 written ahead of the loop", got, r.written)
			}
			r.verify(t)
		})
	}
}

// aheadRigSectors sizes TestWriteAheadOfRebuildIsRebuilt's devices so that
// its loop takes longer than 15 ms to reach the unwritten half.
const aheadRigSectors = 128

// lastWrittenStripeRead rebuilds a half-written rig alone and returns how
// long after the rebuild's start the first survivor read of the last written
// stripe reached a device.
func lastWrittenStripeRead(t *testing.T, level Level) time.Duration {
	t.Helper()
	var lba int64
	at := sim.Time(-1)
	r := newRebuildRig(t, level, aheadRigSectors, func(_ int, m *MemDev) Dev {
		return readHook{&slowDev{MemDev: m, delay: 10 * time.Millisecond}, func(p *sim.Proc, l int64) {
			if l == lba && at < 0 {
				at = p.Now()
			}
		}}
	}, true)
	defer r.e.Shutdown()
	lba = r.a.unitLBA(r.written - 1)
	at = -1
	start := r.e.Now()
	r.e.Spawn("rebuild", func(p *sim.Proc) {
		if _, err := r.a.Reconstruct(p, rigFailed, r.spare); err != nil {
			t.Errorf("rebuild: %v", err)
		}
	})
	r.e.Run()
	if at < start+sim.Time(15*time.Millisecond) {
		t.Fatalf("the last written stripe was read %v after the rebuild began, want at least 15 ms", at.Sub(start))
	}
	return at.Sub(start)
}

// readHook runs its hook as each read reaches the device.
type readHook struct {
	*slowDev
	hook func(p *sim.Proc, lba int64)
}

func (d readHook) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	d.hook(p, lba)
	return d.slowDev.Read(p, lba, n)
}

func (d readHook) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	d.hook(p, lba)
	return d.slowDev.ReadInto(p, lba, dst)
}

// TestWriteToQueuedStripeWaitsForItsRun: a foreground write to a stripe whose
// solved column waits in the spare queue takes the stripe's lock only after
// the column's run has landed.  It then sees the column live on the spare and
// writes it there, so the swapped-in spare is current.  Stripe 0's survivor
// reads take 30 ms, every other command 10 ms: stripe 0 joins the queue behind
// later stripes and goes to the spare alone, and those later stripes wait in
// the queue meanwhile.  The write goes to the first stripe seen waiting.
func TestWriteToQueuedStripeWaitsForItsRun(t *testing.T) {
	for _, level := range rebuildLevels {
		t.Run(level.String(), func(t *testing.T) {
			r := newRebuildRig(t, level, 64, func(_ int, m *MemDev) Dev {
				return readHook{&slowDev{MemDev: m, delay: 10 * time.Millisecond}, func(p *sim.Proc, lba int64) {
					if lba == 0 {
						p.Wait(20 * time.Millisecond)
					}
				}}
			}, false)
			defer r.e.Shutdown()
			rebuilt := false
			r.e.Spawn("rebuild", func(p *sim.Proc) {
				if _, err := r.a.Reconstruct(p, rigFailed, r.spare); err != nil {
					t.Errorf("rebuild: %v", err)
				}
				rebuilt = true
			})
			S := r.stripeSectors()
			r.e.Spawn("writer", func(p *sim.Proc) {
				p.Wait(time.Millisecond / 2) // off the device commands' instants
				for ; !rebuilt; p.Wait(time.Millisecond) {
					if rb := r.a.rebuilds[rigFailed]; rb != nil && len(rb.queue) > 0 {
						s := rb.queue[0].stripe
						r.write(t, p, s*S, patterned(int(S)*tSec, byte(s)+50))
						if !rb.done(s) {
							t.Errorf("stripe %d: the write finished before its column reached the spare", s)
						}
						return
					}
				}
				t.Error("no solved column ever waited in the spare queue")
			})
			r.e.Run()
			r.verify(t)
		})
	}
}

// dieOnWrite is a device that dies as its nth write reaches it: that write
// and every command after it fail.
type dieOnWrite struct {
	*MemDev
	n    int
	died func()
}

func (d *dieOnWrite) Write(p *sim.Proc, lba int64, data []byte) error {
	if d.n--; d.n == 0 {
		d.Fail()
		d.died()
	}
	return d.MemDev.Write(p, lba, data)
}

// TestFailedSpareStopsTheRebuild: a spare that dies on its second write
// fails the rebuild, which reads survivors for at most one window (four
// stripes) more and returns the spare's error.  Nothing is left parked, the
// device stays failed with no spare swapped in, and reads still reconstruct.
// The rebuild used to read every remaining written stripe first.
func TestFailedSpareStopsTheRebuild(t *testing.T) {
	const window = 4
	for _, level := range rebuildLevels {
		t.Run(level.String(), func(t *testing.T) {
			const width, failed = 6, 1
			e := sim.New()
			defer e.Shutdown()
			a, devs := newCountedArray(t, e, width, level)
			oracle := patterned(int(a.Sectors())*tSec, byte(level))
			runProc(e, func(p *sim.Proc) {
				if err := a.Write(p, 0, oracle); err != nil {
					t.Fatal(err)
				}
			})
			if err := a.FailDisk(failed); err != nil {
				t.Fatal(err)
			}
			read := func() (secs int) {
				for i, d := range devs {
					if i != failed {
						secs += d.secs
					}
				}
				return secs
			}
			atDeath := -1
			spare := &dieOnWrite{MemDev: NewMemDev(256, tSec), n: 2, died: func() { atDeath = read() }}
			runProc(e, func(p *sim.Proc) {
				if _, err := a.Reconstruct(p, failed, spare); !errors.Is(err, fault.ErrDiskFailed) {
					t.Errorf("rebuild onto a dying spare returned %v, want its ErrDiskFailed", err)
				}
			})
			if live := e.Live(); live != 0 {
				t.Fatalf("%d processes parked after the failed rebuild", live)
			}
			sources := width - 1
			if level == Level1 {
				sources = 1
			}
			perStripe := sources * a.StripeUnitSectors()
			if atDeath < 0 {
				t.Fatal("the spare never died")
			}
			if more := read() - atDeath; more > window*perStripe {
				t.Errorf("the rebuild read %d stripes' survivors after the spare died, want at most %d", more/perStripe, window)
			}
			if !a.Failed(failed) || a.devs[failed] == Dev(spare) {
				t.Fatal("a failed rebuild swapped its spare in")
			}
			runProc(e, func(p *sim.Proc) {
				got, err := a.Read(p, 0, int(a.Sectors()))
				if err != nil || !bytes.Equal(got, oracle) {
					t.Fatalf("degraded read-back after the failed rebuild: %v", err)
				}
			})
		})
	}
}

// countDev counts the commands and sectors a device is sent, and logs its
// reads and writes.  It has no ReadInto, so every read comes through Read.
type countDev struct {
	Dev
	reads, cmds, secs int
	readRuns, writes  []sectorRun
}

// sectorRun is one command's sectors.
type sectorRun struct{ lba, n int64 }

func (d *countDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	d.reads++
	d.cmds++
	d.secs += n
	d.readRuns = append(d.readRuns, sectorRun{lba, int64(n)})
	return d.Dev.Read(p, lba, n)
}

func (d *countDev) Write(p *sim.Proc, lba int64, data []byte) error {
	d.cmds++
	d.secs += len(data) / d.SectorSize()
	d.writes = append(d.writes, sectorRun{lba, int64(len(data) / d.SectorSize())})
	return d.Dev.Write(p, lba, data)
}

func newCountedArray(t *testing.T, e *sim.Engine, width int, level Level) (*Array, []*countDev) {
	t.Helper()
	devs, counted := make([]Dev, width), make([]*countDev, width)
	for i := range devs {
		counted[i] = &countDev{Dev: NewMemDev(256, tSec)}
		devs[i] = counted[i]
	}
	a, err := New(e, devs, Config{Level: level, StripeUnitSectors: tUnit}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, counted
}

// TestStripeCodeOtherPlans pins the planner's choice by counter at every fail
// set of a 5-wide array: a degraded stripe takes the plan a healthy one does.
// On each stripe of the rotation — so the lost devices meet every role — a
// wide partial write is a reconstruct-write that reads only the columns it
// does not fully overwrite (every survivor when one of those is lost), and a
// one-sector write is a read-modify-write of the old data and check columns
// (the lost column solved in place from every survivor).
func TestStripeCodeOtherPlans(t *testing.T) {
	for _, level := range []Level{Level5, Level6} {
		for _, failed := range failSets(5, levels[level].checks) {
			t.Run(fmt.Sprintf("%v/fail%v", level, failed), func(t *testing.T) {
				stripeCodePlans(t, level, failed)
			})
		}
	}
}

func stripeCodePlans(t *testing.T, level Level, failed []int) {
	const width = 5
	e := sim.New()
	defer e.Shutdown()
	a, devs := newCountedArray(t, e, width, level)
	u, k, m := int64(a.StripeUnitSectors()), a.DataDisks(), levels[level].checks
	S := int64(k) * u
	oracle := patterned(int(a.Sectors())*tSec, byte(level))
	survivors := width - len(failed)

	// write issues one write and checks which plan served it and how many
	// reads it cost in all and on the stripe's check columns.
	write := func(p *sim.Proc, shape string, s, off, n int64, plan *uint64, wantReads, wantCheckReads int) {
		t.Helper()
		before, planBefore := a.Stats(), *plan
		checkReads := 0
		for j := 0; j < m; j++ {
			checkReads -= devs[a.colDev(s, k+j)].reads
		}
		data := patterned(int(n)*tSec, byte(s)+100)
		if err := a.Write(p, s*S+off, data); err != nil {
			t.Fatalf("%s write to stripe %d: %v", shape, s, err)
		}
		copy(oracle[(s*S+off)*tSec:], data)
		for j := 0; j < m; j++ {
			checkReads += devs[a.colDev(s, k+j)].reads
		}
		st := a.Stats()
		if *plan != planBefore+1 || st.SmallWrites+st.ReconstructWrites != before.SmallWrites+before.ReconstructWrites+1 {
			t.Fatalf("%s write to stripe %d took the wrong plan: %+v", shape, s, st)
		}
		if got := int(st.DiskReads - before.DiskReads); got != wantReads || checkReads != wantCheckReads {
			t.Fatalf("%s write to stripe %d: %d reads, %d of check columns; want %d and %d",
				shape, s, got, checkReads, wantReads, wantCheckReads)
		}
	}

	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, oracle); err != nil {
			t.Fatal(err)
		}
		for _, d := range failed {
			if err := a.FailDisk(d); err != nil {
				t.Fatal(err)
			}
		}
		st := &a.stats
		for s := int64(0); s < width; s++ {
			lost := make([]bool, width) // by role
			for _, d := range failed {
				lost[a.Role(s, d)] = true
			}
			checks := 0 // surviving check columns
			for j := 0; j < m; j++ {
				if !lost[k+j] {
					checks++
				}
			}
			// Wide: all of the stripe but its first and last sector, so the
			// first and last data columns are the ones not fully overwritten.
			if lost[0] || lost[k-1] {
				write(p, "wide", s, 1, S-2, &st.ReconstructWrites, survivors, checks)
			} else {
				write(p, "wide", s, 1, S-2, &st.ReconstructWrites, 2, 0)
			}
			// Narrow: one sector of one column.
			c := int(s) % k
			if lost[c] {
				write(p, "narrow", s, int64(c)*u+1, 1, &st.SmallWrites, checks+survivors, 2*checks)
			} else {
				write(p, "narrow", s, int64(c)*u+1, 1, &st.SmallWrites, 1+checks, checks)
			}
		}
		got, err := a.Read(p, 0, int(a.Sectors()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle) {
			t.Fatal("contents differ from the oracle")
		}
	})
}

// TestLevel6ReconstructBytes pins what a Level-6 rebuild of a fully written
// array moves, the rebuild share of degraded_r6's disk bytes: every stripe
// reads its unit from every surviving device and its unit reaches the spare
// once, in runs of consecutive stripes — with one device down and with a
// second still down — and nothing else is read or written.
func TestLevel6ReconstructBytes(t *testing.T) {
	for _, down := range [][]int{{1}, {1, 4}} {
		t.Run(fmt.Sprintf("down%v", down), func(t *testing.T) {
			reconstructBytes(t, Level6, down, func(int64) bool { return true })
		})
	}
}

// TestReconstructSkipsUnwrittenStripes: on a half-written array (every other
// stripe, alternately through Write and WriteStreaming) the rebuild reads and
// writes exactly the written stripes, at Levels 1, 5 and 6.  Every stripe no
// write has reached is zeros everywhere, the spare included, and is skipped.
func TestReconstructSkipsUnwrittenStripes(t *testing.T) {
	for _, tc := range []struct {
		level Level
		down  []int
	}{{Level1, []int{1}}, {Level5, []int{1}}, {Level6, []int{1}}, {Level6, []int{1, 4}}} {
		t.Run(fmt.Sprintf("%v/down%v", tc.level, tc.down), func(t *testing.T) {
			reconstructBytes(t, tc.level, tc.down, func(s int64) bool { return s%2 == 0 })
		})
	}
}

// reconstructBytes writes the stripes of a 6-wide counted array that written
// picks, whole stripes alternately through Write and WriteStreaming, fails the
// devices in down and rebuilds down[0].  The rebuild must read one unit per
// written stripe from each source — the surviving mirror member at Level 1,
// every survivor otherwise — write each written stripe's unit to the spare
// exactly once, in commands that each cover a run of consecutive written
// stripes, count exactly the written stripes, and touch nothing else;
// afterwards the array reads back what was written with its parity
// consistent.
func reconstructBytes(t *testing.T, level Level, down []int, written func(s int64) bool) {
	t.Helper()
	const width = 6
	e := sim.New()
	defer e.Shutdown()
	a, devs := newCountedArray(t, e, width, level)
	S := int64(a.DataDisks() * a.StripeUnitSectors())
	oracle := make([]byte, a.Sectors()*tSec)
	var want int64
	runProc(e, func(p *sim.Proc) {
		for s := int64(0); s < a.stripes; s++ {
			if !written(s) {
				continue
			}
			write := a.Write
			if want%2 == 1 {
				write = a.WriteStreaming
			}
			data := patterned(int(S)*tSec, byte(s))
			if err := write(p, s*S, data); err != nil {
				t.Fatal(err)
			}
			copy(oracle[s*S*tSec:], data)
			want++
		}
	})
	for _, d := range devs {
		d.reads, d.cmds, d.secs = 0, 0, 0
	}
	for _, d := range down {
		if err := a.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	spare := &countDev{Dev: NewMemDev(256, tSec)}
	var rebuilt int64
	runProc(e, func(p *sim.Proc) {
		var err error
		if rebuilt, err = a.Reconstruct(p, down[0], spare); err != nil {
			t.Fatal(err)
		}
	})
	unit := a.StripeUnitSectors()
	sources := width - len(down)
	if level == Level1 {
		sources = 1
	}
	read := 0
	for i, d := range devs {
		if d.cmds != d.reads {
			t.Errorf("device %d was written", i)
		}
		read += d.secs
	}
	if rebuilt != want || a.Stats().RebuildStripes != uint64(want) || read != int(want)*sources*unit {
		t.Errorf("%d stripes rebuilt (%d counted) reading %d sectors, want %d stripes x %d sources x %d",
			rebuilt, a.Stats().RebuildStripes, read, want, sources, unit)
	}
	if spare.reads != 0 || spare.secs != int(want)*unit || spare.cmds > int(want) {
		t.Errorf("the spare took %d sectors in %d commands and %d reads, want %d stripes x %d in at most one write each",
			spare.secs, spare.cmds, spare.reads, want, unit)
	}
	landed := make([]int, a.stripes)
	for _, w := range spare.writes {
		u := int64(unit)
		if w.lba%u != 0 || w.n%u != 0 {
			t.Fatalf("spare write [%d,+%d) is not whole stripe units", w.lba, w.n)
		}
		for s := w.lba / u; s < (w.lba+w.n)/u; s++ {
			if !written(s) {
				t.Fatalf("spare write [%d,+%d) crosses unwritten stripe %d", w.lba, w.n, s)
			}
			landed[s]++
		}
	}
	for s, n := range landed {
		once := 0
		if written(int64(s)) {
			once = 1
		}
		if n != once {
			t.Errorf("stripe %d reached the spare %d times, want %d", s, n, once)
		}
	}
	runProc(e, func(p *sim.Proc) {
		got, err := a.Read(p, 0, int(a.Sectors()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oracle) {
			t.Fatal("read-back after the rebuild differs from what was written")
		}
		if bad := a.CheckParity(p); bad != 0 {
			t.Fatalf("CheckParity = %d after the rebuild", bad)
		}
	})
}
