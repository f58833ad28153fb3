package raid

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// FuzzArrayFaults decodes bytes into operations on a Level 1, 5 or 6 array
// of MemDevs behind a 1 ms command delay: writes and reads of any alignment
// and length, FailDisk, ReplaceDisk in the background onto a spare that may
// die at a given stripe, a pause that lets a rebuild run on under the
// operations that follow, ReturnDisk and Resync.  Every read is checked
// against a flat byte slice.  A read, a write or a resync may fail only with
// ErrArrayFailed, and only when the model finds, before or after it, one of
// the stripes it touches lost (lostAt); a rebuild may fail only with that or
// its spare's death.  A failed write leaves the sectors it covered unknown.
// After every operation: every missed stripe is a written stripe, a resync or
// rebuild that returned nil left its device's missed set empty, and parity is
// clean whenever no device is failed or missing stripes.
func FuzzArrayFaults(f *testing.F) {
	f.Add([]byte{0, 0, 0, 35, 2, 1, 0, 5, 20, 4, 50, 1, 0, 35})
	f.Add([]byte{1, 0, 0, 200, 2, 0, 2, 3, 3, 0, 9, 0, 4, 7, 0, 30, 9, 4, 255, 5, 3, 6, 3, 1, 0, 71})
	f.Add([]byte{0, 0, 0, 71, 2, 2, 3, 2, 255, 0, 13, 40, 0, 50, 3, 4, 200, 5, 2, 1, 0, 71})
	// Stripes 0 and 2 written, device 1 fails and stripe 0 is rewritten; the
	// rebuild lands stripe 0 on a spare that dies at stripe 2.  Device 1 comes
	// back still missing stripe 0: the read must not take its stale column.
	f.Add([]byte{0, 0, 0, 11, 0, 24, 11, 2, 1, 0, 0, 11, 3, 1, 2, 4, 100, 5, 1, 1, 0, 35, 6, 1, 1, 0, 35})
	// A write to a stripe the walk has passed is on its way to the spare when
	// the rebuild swaps the spare in: the device holds the write.
	f.Add([]byte("11\x000A2A0B001*B00"))
	// The same, and the write fails on the spare once it is the device: the
	// device is escalated.
	f.Add([]byte("1100A2A0B2&1\xbd"))
	// Device 0 comes back while its rebuild is in flight: it stays failed,
	// and the spare replaces it.
	f.Add([]byte("0100A0B00Y"))
	// Level 6: devices 0 and 3 fail and a rebuild of 3 starts; device 4
	// fails once the rebuild has read its survivors.  The rebuild swaps in,
	// and with devices 0 and 4 failed every stripe still reads.
	f.Add([]byte{3, 0, 0, 15, 2, 0, 2, 3, 3, 3, 255, 4, 1, 2, 4, 4, 5, 1, 0, 15})
	// The same at Level 1: the mirror fails once the rebuild has read both
	// written stripes from it, and with only the mirror failed they read.
	f.Add([]byte{4, 0, 0, 63, 2, 0, 3, 0, 255, 4, 1, 2, 1, 4, 5, 1, 0, 63})
	// Level 1 with six written stripes: the mirror fails before the rebuild
	// reaches stripes 4 and 5, which are lost, and the rebuild fails typed.
	f.Add([]byte{4, 0, 0, 23, 0, 24, 23, 2, 0, 3, 0, 255, 4, 1, 2, 1, 4, 5, 1, 0, 63})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		var cfg byte
		cfg, ops = arg(ops)
		m := newFaultModel(t, cfg)
		defer m.e.Shutdown()
		m.e.Spawn("fuzz", func(p *sim.Proc) {
			for len(ops) > 0 {
				ops = m.step(p, ops)
				m.check(p)
			}
			for _, r := range m.rebuilds {
				_, _ = r.h.Wait(p) // check judges the result
			}
			m.check(p)
			m.read(p, 0, m.a.Sectors())
		})
		m.e.Run()
	})
}

// faultDev is a MemDev behind a 1 ms command delay.  A write that reaches
// failAt or past it kills the device: it fails, and so does every command
// after it.
type faultDev struct {
	*MemDev
	failAt int64
}

func (d faultDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	p.Wait(time.Millisecond)
	return d.MemDev.Read(p, lba, n)
}

func (d faultDev) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	p.Wait(time.Millisecond)
	return d.MemDev.ReadInto(p, lba, dst)
}

func (d faultDev) Write(p *sim.Proc, lba int64, data []byte) error {
	p.Wait(time.Millisecond)
	if lba+int64(len(data)/d.secSize) > d.failAt {
		d.Fail()
	}
	return d.MemDev.Write(p, lba, data)
}

// faultModel is FuzzArrayFaults' array and its oracle.
type faultModel struct {
	t        *testing.T
	e        *sim.Engine
	a        *Array
	data     []byte // what the array must hold
	known    []bool // per logical sector: data holds it (a failed write leaves it unknown)
	gen      byte   // varies each write's bytes
	rebuilds []*fuzzRebuild
}

// fuzzRebuild is a background rebuild the model started.
type fuzzRebuild struct {
	h       *Rebuild
	dev     int
	checked bool
}

// newFaultModel decodes cfg: bit 2 picks Level 1, else bit 0 Level 6 over
// Level 5, and bit 1 the wider of the level's two widths.
func newFaultModel(t *testing.T, cfg byte) *faultModel {
	wide := int(cfg>>1) % 2
	level, width := Level5, 4+wide
	switch {
	case cfg&4 != 0:
		level, width = Level1, 4+2*wide
	case cfg%2 == 1:
		level, width = Level6, 5+wide
	}
	e := sim.New()
	a, _ := newFaultArray(t, e, width, level)
	return &faultModel{t: t, e: e, a: a, data: make([]byte, a.Sectors()*tSec), known: fill(int(a.Sectors()))}
}

// newFaultArray builds an array of faultDevs that never die by themselves.
func newFaultArray(t *testing.T, e *sim.Engine, width int, level Level) (*Array, []faultDev) {
	t.Helper()
	devs := make([]Dev, width)
	fds := make([]faultDev, width)
	for i := range devs {
		fds[i] = faultDev{NewMemDev(64, tSec), 1 << 62}
		devs[i] = fds[i]
	}
	a, err := New(e, devs, Config{Level: level, StripeUnitSectors: tUnit}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, fds
}

func fill(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// arg returns the next byte of ops (zero past the end) and the rest.
func arg(ops []byte) (byte, []byte) {
	if len(ops) == 0 {
		return 0, nil
	}
	return ops[0], ops[1:]
}

// unhealthy counts the devices that are failed, missing stripes or dead.
func (m *faultModel) unhealthy() int {
	n := 0
	for i := range m.a.Width() {
		if m.a.Failed(i) || m.a.Missed(i) > 0 || m.dead(i) {
			n++
		}
	}
	return n
}

// dead reports whether device i is a spare that died and was swapped in.
func (m *faultModel) dead(i int) bool { return m.a.devs[i].(faultDev).failed }

// out reports whether device dev's column of stripe s is out: the device is
// failed or dead, or it missed the stripe.
func (m *faultModel) out(dev int, s int64) bool {
	return m.a.Failed(dev) || m.dead(dev) || m.a.missed[dev].Has(s)
}

// lostAt reports whether stripe s may have lost data: more of its columns
// are out than the level's check columns, or at Level 1 both copies of one.
func (m *faultModel) lostAt(s int64) bool {
	mirrored, n := m.a.Level() == Level1, 0
	for dev := range m.a.Width() {
		if m.out(dev, s) {
			if mirrored && m.out(dev^1, s) {
				return true
			}
			n++
		}
	}
	return !mirrored && n > m.a.Level().Checks()
}

// exhausted reports whether a stripe of the logical range [lba, lba+n) may
// have lost data.
func (m *faultModel) exhausted(lba, n int64) bool {
	per := int64(m.a.DataDisks() * m.a.StripeUnitSectors())
	for s := lba / per; s*per < lba+n; s++ {
		if m.lostAt(s) {
			return true
		}
	}
	return false
}

// allowed fails the test unless err is nil, or ErrArrayFailed while a
// stripe the operation touches was lost, before the operation (before) or,
// once columns died under it, after (now).
func (m *faultModel) allowed(what string, err error, before, now bool) {
	m.t.Helper()
	if err != nil && (!before && !now || !errors.Is(err, ErrArrayFailed)) {
		m.t.Fatalf("%s: %v (%d devices unhealthy)", what, err, m.unhealthy())
	}
}

// extent decodes a logical range of any alignment: a start sector and a
// length of up to three stripes, cut at the array's end.
func (m *faultModel) extent(ops []byte) (int64, int64, []byte) {
	var lo, n byte
	lo, ops = arg(ops)
	n, ops = arg(ops)
	secs := m.a.Sectors()
	lba := int64(lo) % secs
	stripe := int64(m.a.DataDisks() * m.a.StripeUnitSectors())
	return lba, min(1+int64(n)%(3*stripe), secs-lba), ops
}

// read reads [lba, lba+n) and checks every known sector.
func (m *faultModel) read(p *sim.Proc, lba, n int64) {
	m.t.Helper()
	before := m.exhausted(lba, n)
	got, err := m.a.Read(p, lba, int(n))
	m.allowed(fmt.Sprintf("read [%d,+%d)", lba, n), err, before, m.exhausted(lba, n))
	if err != nil {
		return
	}
	for s := lba; s < lba+n; s++ {
		off := (s - lba) * tSec
		if m.known[s] && !bytes.Equal(got[off:off+tSec], m.data[s*tSec:(s+1)*tSec]) {
			m.t.Fatalf("read [%d,+%d): sector %d reads wrong", lba, n, s)
		}
	}
}

// step runs the operation at the head of ops and returns the rest.  It logs
// the operation and the devices' state after it, for a failing input.
func (m *faultModel) step(p *sim.Proc, ops []byte) []byte {
	a, all := m.a, ops
	defer func() {
		missed := make([]int, a.Width())
		for i := range missed {
			missed[i] = a.Missed(i)
		}
		m.t.Logf("%v at %v: failed %v, missed %v, lost %v", all[:len(all)-len(ops)], p.Now(), slices.Collect(a.failed.All()), missed, a.Lost())
	}()
	op, ops := arg(ops)
	var b, c byte
	switch op % 7 {
	case 0: // write
		var lba, n int64
		lba, n, ops = m.extent(ops)
		m.gen++
		buf := make([]byte, n*tSec)
		for i := range buf {
			buf[i] = byte(uint32(int(m.gen)<<24+i) * 2654435761 >> 24)
		}
		before := m.exhausted(lba, n)
		err := a.Write(p, lba, buf)
		m.allowed(fmt.Sprintf("write [%d,+%d)", lba, n), err, before, m.exhausted(lba, n))
		copy(m.data[lba*tSec:], buf)
		for s := lba; s < lba+n; s++ {
			m.known[s] = err == nil
		}
	case 1: // read
		var lba, n int64
		lba, n, ops = m.extent(ops)
		m.read(p, lba, n)
	case 2:
		b, ops = arg(ops)
		if err := a.FailDisk(int(b) % a.Width()); err != nil {
			m.t.Fatal(err)
		}
	case 3: // ReplaceDisk onto a spare that dies at stripe c (never, past the end)
		b, ops = arg(ops)
		c, ops = arg(ops)
		dev := int(b) % a.Width()
		if a.CanReplace(dev) != nil {
			break
		}
		spare := faultDev{NewMemDev(64, tSec), a.unitLBA(int64(c) % (2 * a.stripes))}
		h, err := a.ReplaceDisk(dev, spare)
		if err != nil {
			m.t.Fatal(err)
		}
		m.rebuilds = append(m.rebuilds, &fuzzRebuild{h: h, dev: dev})
	case 4:
		b, ops = arg(ops)
		p.Wait(time.Duration(b) * time.Millisecond)
	case 5:
		b, ops = arg(ops)
		a.ReturnDisk(int(b) % a.Width())
	case 6:
		b, ops = arg(ops)
		dev := int(b) % a.Width()
		if a.canRebuild(dev, false) != nil {
			break
		}
		// A resync touches the stripes its device missed, and fails at the
		// first it cannot repair, which stays in the set.
		touched := func() bool { return slices.ContainsFunc(slices.Collect(a.missed[dev].All()), m.lostAt) }
		before := touched()
		_, err := a.Resync(p, dev)
		if !m.dead(dev) || !errors.Is(err, fault.ErrDiskFailed) {
			m.allowed(fmt.Sprintf("resync %d", dev), err, before, touched())
		}
		if err == nil && a.Missed(dev) != 0 {
			m.t.Fatalf("resync %d returned nil with %d stripes still missed", dev, a.Missed(dev))
		}
	}
	return ops
}

// check asserts the invariants that hold between operations.
func (m *faultModel) check(p *sim.Proc) {
	m.t.Helper()
	a := m.a
	for _, r := range m.rebuilds {
		if r.checked || !r.h.Done() {
			continue
		}
		r.checked = true
		_, err := r.h.Wait(p)
		if err != nil && !errors.Is(err, fault.ErrDiskFailed) && !errors.Is(err, ErrArrayFailed) {
			m.t.Fatalf("rebuild of device %d: %v", r.dev, err)
		}
		// A device failed again since the swap-in may have missed writes.
		if err == nil && !a.Failed(r.dev) && a.Missed(r.dev) != 0 {
			m.t.Fatalf("rebuild of device %d returned nil with %d stripes still missed", r.dev, a.Missed(r.dev))
		}
	}
	for dev := range a.missed {
		for s := range a.missed[dev].All() {
			if !a.written.Has(s) {
				m.t.Fatalf("device %d missed stripe %d, which no write reached", dev, s)
			}
		}
	}
	if m.unhealthy() == 0 {
		if bad := a.CheckParity(p); bad != 0 {
			m.t.Fatalf("%d stripes fail parity with every device healthy", bad)
		}
	}
}
