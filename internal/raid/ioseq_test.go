package raid

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"raidii/internal/sim"
)

// The I/O-sequence pin.  A short scripted op list runs at Levels 3, 5 and 6
// over devices and a parity engine that charge fixed delays and log every
// command; the ordered log — simulated time, device, read or write, LBA,
// sectors, every parity-engine call, and the engine events each op cost —
// must equal the file under testdata/, which was recorded from the per-level
// code (io.go + io6.go) before the paths were merged into one stripe code.
// It answers in a second what the raidbench suite answers by a changed
// float, and names the first diverging I/O when it fails.  The script uses
// the exported API only, so the same file records and checks.
//
// Regenerate (only for a change that is meant to move simulated I/O):
//
//	go test ./internal/raid/ -run TestIOSequencePin -update
var updatePin = flag.Bool("update", false, "rewrite testdata/ioseq_level*.txt from the current code")

const (
	pinWidth   = 6
	pinSectors = 32
	pinRead    = 1000 * time.Microsecond
	pinWrite   = 1500 * time.Microsecond
	pinXORStep = 10 * time.Microsecond
)

// pinLog collects the ordered command log of one scripted run.
type pinLog struct {
	e     *sim.Engine
	lines []string
}

func (l *pinLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf("%9d ", int64(l.e.Now())/1000)+fmt.Sprintf(format, args...))
}

// pinDev is a MemDev that logs each command at issue and then charges a
// fixed delay: unbounded concurrency, so the log order is the order the
// array issued the commands in.
type pinDev struct {
	*MemDev
	log  *pinLog
	name string
}

func (d *pinDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	out := make([]byte, n*d.SectorSize())
	return out, d.ReadInto(p, lba, out)
}

func (d *pinDev) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	d.log.add("%-6s R lba=%-3d n=%d", d.name, lba, len(dst)/d.SectorSize())
	p.Wait(pinRead)
	return d.MemDev.ReadInto(p, lba, dst)
}

func (d *pinDev) Write(p *sim.Proc, lba int64, data []byte) error {
	d.log.add("%-6s W lba=%-3d n=%d", d.name, lba, len(data)/d.SectorSize())
	p.Wait(pinWrite)
	return d.MemDev.Write(p, lba, data)
}

// pinXOR logs each parity-engine call and charges what the XBUS engine
// charges by: one pass per source plus one for the result, whether the
// sources come in one call or fold in one at a time.
type pinXOR struct{ log *pinLog }

func (x pinXOR) XORTo(p *sim.Proc, dst []byte, srcs ...[]byte) {
	x.log.add("xor    to   srcs=%d len=%d", len(srcs), len(dst))
	p.Wait(time.Duration(len(srcs)+1) * pinXORStep)
	SoftXOR{}.XORTo(p, dst, srcs...)
}

func (x pinXOR) XORInto(p *sim.Proc, dst, src []byte) {
	x.log.add("xor    into len=%d", len(dst))
	p.Wait(pinXORStep)
	SoftXOR{}.XORInto(p, dst, src)
}

func (x pinXOR) Fold(p *sim.Proc, acc, src []byte) {
	x.log.add("xor    fold len=%d", len(acc))
	p.Wait(pinXORStep)
	SoftXOR{}.Fold(p, acc, src)
}

func (x pinXOR) Result(p *sim.Proc, n int) {
	x.log.add("xor    out  len=%d", n)
	p.Wait(pinXORStep)
}

// pinScript runs the scripted op list at one level and returns its log.
func pinScript(t *testing.T, level Level) []string {
	e := sim.New()
	defer e.Shutdown()
	log := &pinLog{e: e}
	devs := make([]Dev, pinWidth)
	for i := range devs {
		devs[i] = &pinDev{MemDev: NewMemDev(pinSectors, tSec), log: log, name: fmt.Sprintf("dev%d", i)}
	}
	a, err := New(e, devs, Config{Level: level, StripeUnitSectors: tUnit}, pinXOR{log})
	if err != nil {
		t.Fatal(err)
	}
	u := int64(a.StripeUnitSectors())
	k := int64(a.DataDisks())
	S := k * u // logical sectors per stripe
	partial := int64(0)
	if u > 1 {
		partial = 1
	}

	seed := byte(0)
	op := func(name string, fn func(p *sim.Proc) error) {
		log.lines = append(log.lines, "# "+name)
		before := e.EventsExecuted()
		runProc(e, func(p *sim.Proc) {
			if err := fn(p); err != nil {
				t.Fatalf("%v %s: %v", level, name, err)
			}
		})
		log.add("done   events=%d", e.EventsExecuted()-before)
	}
	write := func(name string, lba, n int64) {
		seed++
		data := patterned(int(n)*tSec, seed)
		op(fmt.Sprintf("%s write lba=%d n=%d", name, lba, n), func(p *sim.Proc) error { return a.Write(p, lba, data) })
	}
	read := func(name string, lba, n int64) {
		op(fmt.Sprintf("%s read lba=%d n=%d", name, lba, n), func(p *sim.Proc) error {
			_, err := a.Read(p, lba, int(n))
			return err
		})
	}
	stream := func(name string, lba, n int64) {
		seed++
		data := patterned(int(n)*tSec, seed)
		op(fmt.Sprintf("%s streaming write lba=%d n=%d", name, lba, n), func(p *sim.Proc) error { return a.WriteStreaming(p, lba, data) })
	}
	checkParity := func(name string) {
		op(name+" CheckParity", func(p *sim.Proc) error {
			if bad := a.CheckParity(p); bad != 0 {
				return fmt.Errorf("%d inconsistent stripes", bad)
			}
			return nil
		})
	}
	// sweep issues one write per stripe 0..5, so the failed devices meet
	// every role the rotation gives them: written data column, untouched data
	// column, P, Q.
	sweep := func(name string, off func(s int64) int64, n int64) {
		for s := int64(0); s < 6; s++ {
			write(fmt.Sprintf("%s stripe %d", name, s), s*S+off(s), n)
		}
	}
	narrowAt := func(s int64) int64 { return u * (s % k) }
	wideAt := func(int64) int64 { return partial }
	wideLen := (k-1)*u - partial

	// Healthy.  Stripes 5 and 6 take the streaming writes while they still
	// hold zeros, so parity over the written columns alone is the true parity.
	stream("partial", 5*S+partial, 2*u)
	stream("full", 6*S, S)
	write("seed (full stripes)", 0, 5*S)
	write("full stripe", S, S)
	write("wide partial", 2*S+partial, wideLen)
	write("narrow sub-unit", 3*S+u, 1)
	write("narrow two-column", 3*S+u-partial, 2)
	write("stripe-straddling", 4*S-1, 2)
	read("healthy", 0, 5*S)
	checkParity("healthy")
	op("scrub 2 stripes", func(p *sim.Proc) error {
		sc, err := a.StartScrub(ScrubConfig{MaxStripes: 2, Interval: time.Millisecond})
		if err != nil {
			return err
		}
		sc.Wait(p)
		return nil
	})

	// One device down.
	if err := a.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	read("degraded", 0, 7*S)
	sweep("degraded narrow", narrowAt, 1)
	sweep("degraded wide", wideAt, wideLen)
	write("degraded full stripe", S, S)

	failed := []int{2}
	if level == Level6 {
		if err := a.FailDisk(4); err != nil {
			t.Fatal(err)
		}
		failed = append(failed, 4)
		read("double-degraded", 0, 7*S)
		sweep("double-degraded narrow", narrowAt, 1)
		sweep("double-degraded wide", wideAt, wideLen)
		write("double-degraded full stripe", 2*S, S)
	}

	for _, d := range failed {
		spare := &pinDev{MemDev: NewMemDev(pinSectors, tSec), log: log, name: fmt.Sprintf("spare%d", d)}
		op(fmt.Sprintf("rebuild dev%d", d), func(p *sim.Proc) error {
			_, err := a.Reconstruct(p, d, spare)
			return err
		})
	}
	read("rebuilt", 0, 7*S)
	checkParity("rebuilt")
	return log.lines
}

func TestIOSequencePin(t *testing.T) {
	for _, level := range []Level{Level3, Level5, Level6} {
		t.Run(level.String(), func(t *testing.T) {
			got := pinScript(t, level)
			path := filepath.Join("testdata", fmt.Sprintf("ioseq_level%d.txt", int(level)))
			if *updatePin {
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			op := ""
			for i := 0; i < len(got) || i < len(want); i++ {
				g, w := "<end of log>", "<end of log>"
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("I/O sequence diverges at line %d, in op %q:\n  recorded: %s\n  now:      %s", i+1, op, w, g)
				}
				if strings.HasPrefix(g, "# ") {
					op = g[2:]
				}
			}
		})
	}
}
