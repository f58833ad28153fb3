package raid

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"raidii/internal/sim"
)

// span is a run of sectors [lo, hi).
type span struct{ lo, hi int64 }

func (s span) empty() bool { return s.lo >= s.hi }

// TestDegradedReadOneCommandPerSurvivor: random reads at Levels 3, 5 and 6
// with one lost column and, at Level 6, every pair of lost columns, so that
// over the rotation the lost columns meet every role: data, P and Q.  In a
// stripe where the request wants rows of a lost column, each surviving
// device reads no sector twice and takes one command — two only when the
// rows the request wants of it and the rows the solve needs lie apart, so
// that one command would read rows neither needs.  In a stripe where it
// wants no lost rows, each extent is one command over exactly its rows and
// nothing else is read.  The bytes match a flat oracle.  The parent read the
// solve's rows from every survivor besides each healthy extent's own read,
// so a device the request already read took a second, overlapping command.
func TestDegradedReadOneCommandPerSurvivor(t *testing.T) {
	for _, level := range []Level{Level3, Level5, Level6} {
		for _, failed := range failSets(6, levels[level].checks) {
			if len(failed) == 0 {
				continue
			}
			t.Run(fmt.Sprintf("%v/fail%v", level, failed), func(t *testing.T) {
				oneCommandPerSurvivor(t, level, failed)
			})
		}
	}
}

func oneCommandPerSurvivor(t *testing.T, level Level, failed []int) {
	const width = 6
	e := sim.New()
	defer e.Shutdown()
	a, devs := newCountedArray(t, e, width, level)
	rng := rand.New(rand.NewSource(int64(level)*100 + int64(failed[0])*10 + int64(len(failed))))
	u, k := int64(a.StripeUnitSectors()), int64(a.DataDisks())
	S := k * u
	oracle := patterned(int(a.Sectors())*tSec, byte(level)+11)
	lost := func(dev int) bool { return slices.Contains(failed, dev) }

	// check holds one request's reads to the rules above, stripe by stripe.
	check := func(lba, n int64) {
		t.Helper()
		for s := lba / S; s <= (lba+n-1)/S; s++ {
			// The rows the request wants of each device, and the rows the
			// solve needs: those of the lost columns the request wants.
			want := make([]span, width)
			var need span
			for pos := int64(0); pos < k; pos++ {
				lo := max(lba, s*S+pos*u) - (s*S + pos*u)
				hi := min(lba+n, s*S+(pos+1)*u) - (s*S + pos*u)
				if lo >= hi {
					continue
				}
				dev := a.colDev(s, int(pos))
				want[dev] = span{lo, hi}
				if lost(dev) {
					if need.empty() {
						need = want[dev]
					}
					need = span{min(need.lo, lo), max(need.hi, hi)}
				}
			}
			base := a.unitLBA(s)
			for dev, d := range devs {
				var runs []span
				for _, r := range d.readRuns {
					if r.lba >= base && r.lba < base+u {
						runs = append(runs, span{r.lba - base, r.lba - base + r.n})
					}
				}
				if lost(dev) {
					if len(runs) != 0 {
						t.Fatalf("read [%d,+%d): lost device %d was read in stripe %d", lba, n, dev, s)
					}
					continue
				}
				if need.empty() {
					if w := want[dev]; (w.empty() && len(runs) != 0) || (!w.empty() && !slices.Equal(runs, []span{w})) {
						t.Fatalf("read [%d,+%d) wants no lost rows of stripe %d, but device %d read %v for %v", lba, n, s, dev, runs, w)
					}
					continue
				}
				w := want[dev]
				apart := !w.empty() && (w.hi < need.lo || need.hi < w.lo)
				if limit := map[bool]int{false: 1, true: 2}[apart]; len(runs) > limit {
					t.Fatalf("read [%d,+%d): surviving device %d took %d commands in stripe %d, want at most %d (wants %v, solve needs %v): %v",
						lba, n, dev, len(runs), s, limit, w, need, runs)
				}
				seen := make([]bool, u)
				for _, r := range runs {
					for x := r.lo; x < r.hi; x++ {
						if seen[x] {
							t.Fatalf("read [%d,+%d): surviving device %d read row %d of stripe %d twice: %v", lba, n, dev, x, s, runs)
						}
						seen[x] = true
					}
				}
				for _, r := range []span{w, need} {
					for x := r.lo; x < r.hi; x++ {
						if !seen[x] {
							t.Fatalf("read [%d,+%d): surviving device %d never read row %d of stripe %d", lba, n, dev, x, s)
						}
					}
				}
			}
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
		for i := 0; i < 80; i++ {
			n := 1 + rng.Int63n(2*S)
			lba := rng.Int63n(a.Sectors() - n + 1)
			for _, d := range devs {
				d.readRuns = nil
			}
			got, err := a.Read(p, lba, int(n))
			if err != nil {
				t.Fatalf("read [%d,+%d): %v", lba, n, err)
			}
			if !bytes.Equal(got, oracle[lba*tSec:(lba+n)*tSec]) {
				t.Fatalf("read [%d,+%d) returned wrong bytes", lba, n)
			}
			check(lba, n)
		}
	})
}

// passXOR is a parity engine that charges step per pass — each source in,
// the result out — one pass at a time, as the XBUS engine's single port
// does, and records when each pass and each result pass ends.
type passXOR struct {
	port    *sim.Server
	step    time.Duration
	passes  []sim.Time
	results []sim.Time
}

func (x *passXOR) pass(p *sim.Proc) {
	x.port.Acquire(p)
	p.Wait(x.step)
	x.port.Release()
	x.passes = append(x.passes, p.Now())
}

func (x *passXOR) XORTo(p *sim.Proc, dst []byte, srcs ...[]byte) {
	for range srcs {
		x.pass(p)
	}
	x.pass(p)
	x.results = append(x.results, p.Now())
	SoftXOR{}.XORTo(p, dst, srcs...)
}

func (x *passXOR) XORInto(p *sim.Proc, dst, src []byte) {
	x.pass(p)
	SoftXOR{}.XORInto(p, dst, src)
}

func (x *passXOR) Fold(p *sim.Proc, acc, src []byte) {
	x.pass(p)
	SoftXOR{}.XORInto(p, acc, src)
}

func (x *passXOR) Result(p *sim.Proc, _ int) {
	x.pass(p)
	x.results = append(x.results, p.Now())
}

// lateDev adds late to its reads and records when the last one landed.
type lateDev struct {
	*slowDev
	late   time.Duration
	landed sim.Time
}

func (d *lateDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	p.Wait(d.late)
	b, err := d.slowDev.Read(p, lba, n)
	d.landed = p.Now()
	return b, err
}

func (d *lateDev) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	p.Wait(d.late)
	err := d.slowDev.ReadInto(p, lba, dst)
	d.landed = p.Now()
	return err
}

// TestSolveFoldsSurvivorsAsTheyLand: one survivor of a degraded stripe comes
// off its disk 30 ms after the rest.  By the time it lands the parity engine
// has folded in every other column it needs — the surviving data columns
// and P — and what is left is that column's pass and the result's: the
// degraded read returns, and a rebuild's solve ends, within two passes of
// it landing.  The parent started the solve only once the slowest survivor
// had landed, and then streamed every column through the engine.
func TestSolveFoldsSurvivorsAsTheyLand(t *testing.T) {
	const step = 500 * time.Microsecond
	for _, level := range []Level{Level5, Level6} {
		for _, rebuild := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/rebuild=%v", level, rebuild), func(t *testing.T) {
				e := sim.New()
				defer e.Shutdown()
				devs := make([]Dev, 6)
				var late []*lateDev
				for i := range devs {
					d := &lateDev{slowDev: &slowDev{MemDev: NewMemDev(64, tSec), delay: time.Millisecond}}
					late, devs[i] = append(late, d), d
				}
				x := &passXOR{port: sim.NewServer(e, "xor", 1), step: step}
				a, err := New(e, devs, Config{Level: level, StripeUnitSectors: tUnit}, x)
				if err != nil {
					t.Fatal(err)
				}
				u, k := a.StripeUnitSectors(), a.DataDisks()
				data := patterned(k*u*tSec, 5)
				runProc(e, func(p *sim.Proc) { // stripe 0 only: the rebuild skips the rest
					if err := a.Write(p, 0, data); err != nil {
						t.Fatal(err)
					}
				})
				lostDev, slow := a.colDev(0, 0), late[a.colDev(0, 1)]
				if err := a.FailDisk(lostDev); err != nil {
					t.Fatal(err)
				}
				slow.late = 30 * time.Millisecond
				x.passes, x.results = nil, nil
				var done sim.Time
				runProc(e, func(p *sim.Proc) {
					if rebuild {
						if _, err := a.Reconstruct(p, lostDev, NewMemDev(64, tSec)); err != nil {
							t.Fatal(err)
						}
						done = x.results[len(x.results)-1]
						return
					}
					got, err := a.Read(p, 0, u)
					if err != nil || !bytes.Equal(got, data[:u*tSec]) {
						t.Fatalf("degraded read: err=%v, bytes match=%v", err, err == nil && bytes.Equal(got, data[:u*tSec]))
					}
					done = p.Now()
				})
				before := 0
				for _, at := range x.passes {
					if at <= slow.landed {
						before++
					}
				}
				if others := k - 1; before < others { // the other k-2 surviving data columns, and P
					t.Errorf("the engine had done %d passes when the slow survivor landed, want its %d other columns'", before, others)
				}
				if after := done.Sub(slow.landed); after > 2*step {
					t.Errorf("the solve ended %v after the slow survivor landed, want at most one column pass and the result pass (%v)", after, 2*step)
				}
			})
		}
	}
}

// TestReadFailsMidPlan: a read in a degraded stripe whose own survivor read
// fails.  The request covers the end of data column 0, all of the lost
// column 1 and the start of column 2 of stripe 1, so columns 0 and 2 are
// read once each for the request and the solve together.  A latent sector
// under column 0's rows fails that read: at Level 6 column 0 joins the solve
// and the bytes are right; at Level 5 two columns are gone and the read
// reports ErrArrayFailed.  The same holds when column 2's disk dies while
// the read is in flight, and Level 6 reports ErrArrayFailed when P's disk
// dies with it.  Nothing is left parked.  Never zeros, never the bytes of
// the failed read's buffer: a plan that serves a failed read's buffer fails
// here.
func TestReadFailsMidPlan(t *testing.T) {
	for _, level := range []Level{Level5, Level6} {
		for _, tc := range []struct {
			name string
			kill []int // data positions (k = P) whose disks die mid-read; none means a latent error under column 0
		}{{"latent", nil}, {"dies", []int{2}}, {"two-die", []int{2, -1}}} {
			t.Run(fmt.Sprintf("%v/%s", level, tc.name), func(t *testing.T) {
				e := sim.New()
				defer e.Shutdown()
				devs := make([]Dev, 6)
				mems := make([]*MemDev, len(devs))
				for i := range devs {
					mems[i] = NewMemDev(64, tSec)
					devs[i] = &slowDev{MemDev: mems[i], delay: 10 * time.Millisecond}
				}
				a, err := New(e, devs, Config{Level: level, StripeUnitSectors: tUnit}, nil)
				if err != nil {
					t.Fatal(err)
				}
				u, k := int64(tUnit), int64(a.DataDisks())
				oracle := patterned(int(a.Sectors())*tSec, 41)
				runProc(e, func(p *sim.Proc) {
					if err := a.Write(p, 0, oracle); err != nil {
						t.Fatal(err)
					}
				})
				const s = 1
				if err := a.FailDisk(a.colDev(s, 1)); err != nil {
					t.Fatal(err)
				}
				lba, n := s*k*u+u-2, u+4 // rows [2,4) of column 0, column 1, rows [0,2) of column 2
				if tc.kill == nil {
					mems[a.colDev(s, 0)].AddLatentError(a.unitLBA(s)+3, 1)
				}
				start := e.Now()
				for _, pos := range tc.kill {
					if pos < 0 {
						pos = int(k)
					}
					e.At(start.Add(sim.Duration(5*time.Millisecond)), "kill", func(*sim.Proc) { mems[a.colDev(s, pos)].Fail() })
				}
				survivable := level == Level6 && len(tc.kill) < 2
				runProc(e, func(p *sim.Proc) {
					got, err := a.Read(p, lba, int(n))
					switch {
					case survivable && err != nil:
						t.Fatalf("read: %v", err)
					case survivable && !bytes.Equal(got, oracle[lba*tSec:(lba+n)*tSec]):
						t.Fatal("read returned wrong bytes")
					case !survivable && !errors.Is(err, ErrArrayFailed):
						t.Fatalf("read = %v, want ErrArrayFailed", err)
					}
				})
				if live := e.Live(); live != 0 {
					t.Fatalf("%d processes parked after the read", live)
				}
			})
		}
	}
}
