// Package raid implements the redundant disk array layer: striping and
// redundancy across a set of block devices, in the RAID levels the paper
// discusses.  RAID-II's hardware experiments run the array as "a RAID Level
// 5 with one parity group of 24 disks"; Level 3 is implemented for the HPDS
// comparison in §4.2, Level 1 and Level 0 for the ablation benchmarks.
//
// The array is functional as well as temporal: parity really is the XOR of
// the data, degraded reads really reconstruct lost contents, and
// Reconstruct really rebuilds a replacement disk.  Level 6 adds a
// Reed-Solomon Q column so the array survives two concurrent failures.
package raid

import (
	"errors"
	"fmt"

	"raidii/internal/bitset"
	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// Dev is a block device the array stripes over: a disk behind its SCSI
// string and VME path, or an in-memory device in tests.  An error is what
// remains after the device's own recovery (the SCSI layer's retries): the
// array escalates it by marking the device failed and flipping to degraded
// operation.
type Dev = bytepath.Device

// Level selects the redundancy organization.
type Level int

const (
	// Level0 stripes with no redundancy.
	Level0 Level = 0
	// Level1 mirrors pairs of disks and stripes across the pairs.
	Level1 Level = 1
	// Level3 is bit/byte-interleaved with a dedicated parity disk; the
	// whole array services one request at a time ("RAID Level 3 ...
	// supports only one small I/O at a time").
	Level3 Level = 3
	// Level5 rotates block-interleaved parity across all disks
	// (left-symmetric layout) and serves independent small I/Os in
	// parallel.
	Level5 Level = 5
	// Level6 adds a second, Reed-Solomon-coded parity column (Q) to the
	// rotated layout, so any two concurrent disk failures remain
	// recoverable — the P+Q organization of Thomasian's survey.
	Level6 Level = 6
)

// ErrArrayFailed is the typed data-loss error.  Loss is a fact about one
// stripe: a stripe is lost while more of its columns are out — on a failed
// device, or missed by a write — than its check columns cover, or at Level 1
// while both copies of one of its columns are.  Every read or write that
// needs a lost stripe reports it rather than serving zeros or stale bytes;
// the other stripes keep serving, and a stripe whose columns come back is no
// longer lost.
var ErrArrayFailed = errors.New("raid: stripe lost: losses exceed redundancy")

func (l Level) String() string { return fmt.Sprintf("RAID-%d", int(l)) }

// Checks returns the number of check columns per stripe at the level.
func (l Level) Checks() int { return levels[l].checks }

// XOREngine computes parity into buffers the array hands it; the XBUS
// parity port implements it in "hardware", and SoftXOR provides a
// host-computed fallback for ablations.
type XOREngine interface {
	// XORTo overwrites dst with the bytewise parity of one or more sources.
	XORTo(p *sim.Proc, dst []byte, srcs ...[]byte)
	// XORInto accumulates src into dst (dst ^= src).
	XORInto(p *sim.Proc, dst, src []byte)
	// Fold accumulates src into acc (acc ^= src) as one more source of a
	// computation the caller assembles a source at a time, as the sources
	// become ready: src crosses into the engine and nothing else does.
	Fold(p *sim.Proc, acc, src []byte)
	// Result ends a folded computation: its n-byte result crosses back out
	// of the engine.  A folded computation is one computation however many
	// sources it folded.
	Result(p *sim.Proc, n int)
}

// SoftXOR is a zero-cost functional XOR engine (no simulated time), for
// tests and for modelling an infinitely fast parity path.
type SoftXOR struct{}

// XOR returns the bytewise parity of the sources in a new buffer.
func (x SoftXOR) XOR(p *sim.Proc, srcs ...[]byte) []byte {
	if len(srcs) == 0 {
		return nil
	}
	out := make([]byte, len(srcs[0]))
	x.XORTo(p, out, srcs...)
	return out
}

// XORTo overwrites dst with the bytewise parity of the sources.
func (SoftXOR) XORTo(_ *sim.Proc, dst []byte, srcs ...[]byte) {
	for i, s := range srcs {
		if len(s) != len(dst) {
			//lint:allow simpanic stripe geometry guarantees equal-length columns; unequal lengths mean a corrupted extent computation
			panic("raid: XOR sources of unequal length")
		}
		if i == 0 {
			copy(dst, s)
		} else {
			bytepath.XOR(dst, s)
		}
	}
}

// XORInto accumulates src into dst.
func (SoftXOR) XORInto(_ *sim.Proc, dst, src []byte) { bytepath.XOR(dst, src) }

// Fold accumulates src into acc.
func (SoftXOR) Fold(p *sim.Proc, acc, src []byte) { SoftXOR{}.XORInto(p, acc, src) }

// Result has nothing to move.
func (SoftXOR) Result(*sim.Proc, int) {}

// Config selects the array organization.
type Config struct {
	Level Level
	// StripeUnitSectors is the interleave unit.  Level 3 forces 1.
	StripeUnitSectors int
}

// levelRow is one Level's row of the level table: everything the stripe
// code needs to know about an organization.  A stripe is k data columns and
// m check columns, one column per device (k + m = width); check column 0 is
// P, the XOR of the data, and check column 1 is Q, the Reed-Solomon sum.
type levelRow struct {
	checks   int  // m, check columns per stripe: any m lost columns solve
	mirrored bool // width/2 independent pairs, each column stored twice
	rotated  bool // left-symmetric rotation; otherwise checks sit on the last devices
	serial   bool // single-request discipline: the whole array serves one request at a time
}

// levels is the level table.  New organizations (RAID-1/0, triple parity,
// declustered layouts) are rows here plus, where needed, a layout function.
var levels = map[Level]levelRow{
	Level0: {},
	Level1: {mirrored: true},
	Level3: {checks: 1, serial: true},
	Level5: {checks: 1, rotated: true},
	Level6: {checks: 2, rotated: true},
}

// Array is a redundant disk array.
type Array struct {
	eng  *sim.Engine
	devs []Dev
	cfg  Config
	row  levelRow // cfg.Level's row of the level table
	xor  XOREngine

	secSize   int
	unitSecs  int
	stripes   int64                 // number of stripes (rows)
	failed    bitset.Set[int]       // devices marked failed
	stripeLk  map[int64]*sim.Server // per-stripe writer lock: writes and the rebuild serialize on it
	arrayLock *sim.Server           // single-request discipline (serial rows)
	rebuilds  map[int]*rebuild      // rebuilds in flight, by device index
	written   bitset.Set[int64]     // stripes some write has reached; the rest hold zeros everywhere
	missed    []bitset.Set[int64]   // per device: stripes whose column missed a write (see ReturnDisk)

	inflight int // foreground requests in service; the scrub yields to them

	// colFree is the free list of column scratch buffers, each one stripe
	// unit long (see scratch.go); Share points it at another array's.
	colFree *bytepath.FreeList
	// reads is the window the array's rebuilds read stripes in, when Share
	// gave it one; nil when each rebuild has its own.
	reads *sim.Server

	stats Stats
}

// Stats counts array-level operations, including the fault events the
// injection subsystem produces.
type Stats struct {
	Reads             uint64
	Writes            uint64
	FullStripeWrites  uint64
	ReconstructWrites uint64 // partial stripes served by reconstruct-write
	StreamingWrites   uint64 // benchmark-mode streamed partial stripes
	SmallWrites       uint64 // read-modify-write parity updates
	// DegradedReads counts request stripes served through a solve because
	// the read wanted rows of a lost column — one per stripe, however many
	// of its extents were lost — and at Level 1 the extents served from the
	// mirror copy.  The solves a rebuild or a degraded write runs are not
	// reads and are not counted; a raid/degraded span marks every request
	// whose solve had a column missing, writes included.
	DegradedReads   uint64
	DiskReads       uint64 // physical accesses issued
	DiskWrites      uint64
	DeviceErrors    uint64 // errors devices returned after controller retries
	DiskFailures    uint64 // escalations that marked a device failed
	RebuildStripes  uint64 // stripes reconstructed onto spares; never-written stripes are skipped
	ScrubbedStripes uint64 // stripes the background patrol verified
	ScrubRepairs    uint64 // latent sectors / parity the patrol rewrote
}

// New builds an array over devs.  All devices must have identical geometry.
func New(e *sim.Engine, devs []Dev, cfg Config, xor XOREngine) (*Array, error) {
	if len(devs) == 0 {
		return nil, errors.New("raid: no devices")
	}
	row, ok := levels[cfg.Level]
	if !ok {
		return nil, fmt.Errorf("raid: unknown level %d", int(cfg.Level))
	}
	if len(devs) < 2*row.checks { // at least as many data columns as check columns
		return nil, fmt.Errorf("raid: level %d needs at least %d devices", int(cfg.Level), 2*row.checks)
	}
	if xor == nil {
		xor = SoftXOR{}
	}
	if cfg.Level == Level3 {
		cfg.StripeUnitSectors = 1 // byte-interleaved: the smallest unit the devices address
	}
	if cfg.StripeUnitSectors <= 0 {
		return nil, errors.New("raid: stripe unit must be positive")
	}
	if row.mirrored && len(devs)%2 != 0 {
		return nil, errors.New("raid: level 1 needs an even number of devices")
	}
	sec := devs[0].SectorSize()
	minSecs := devs[0].Sectors()
	for _, d := range devs {
		if d.SectorSize() != sec {
			return nil, errors.New("raid: mixed sector sizes")
		}
		if d.Sectors() < minSecs {
			minSecs = d.Sectors()
		}
	}
	stripes := minSecs / int64(cfg.StripeUnitSectors)
	a := &Array{
		eng:      e,
		devs:     devs,
		cfg:      cfg,
		row:      row,
		xor:      xor,
		secSize:  sec,
		unitSecs: cfg.StripeUnitSectors,
		stripes:  stripes,
		stripeLk: make(map[int64]*sim.Server),
		rebuilds: make(map[int]*rebuild),
		missed:   make([]bitset.Set[int64], len(devs)),
	}
	colFree := bytepath.NewFreeList(colFreeStripes * len(devs))
	a.colFree = &colFree
	if row.serial {
		a.arrayLock = sim.NewServer(e, "raid3:lock", 1)
	}
	return a, nil
}

// dataDisks returns k, the number of data columns in each stripe.
func (a *Array) dataDisks() int {
	if a.row.mirrored {
		return len(a.devs) / 2
	}
	return len(a.devs) - a.row.checks
}

// Sectors returns the logical capacity in sectors.
func (a *Array) Sectors() int64 {
	return a.stripes * int64(a.unitSecs) * int64(a.dataDisks())
}

// SectorSize returns the logical sector size.
func (a *Array) SectorSize() int { return a.secSize }

// StripeUnitSectors returns the interleave unit.
func (a *Array) StripeUnitSectors() int { return a.unitSecs }

// DataDisks returns the number of data-bearing columns per stripe.
func (a *Array) DataDisks() int { return a.dataDisks() }

// Width returns the number of devices.
func (a *Array) Width() int { return len(a.devs) }

// Level returns the configured level.
func (a *Array) Level() Level { return a.cfg.Level }

// Stats returns a copy of the counters.
func (a *Array) Stats() Stats { return a.stats }

// FailDisk marks device i failed: reads reconstruct from parity, writes
// update surviving columns only.  It refuses a level that cannot survive any
// failure.  A failure beyond the level's redundancy is still recorded, and
// the stripes it leaves short fail the reads and writes that need them
// (ErrArrayFailed).
func (a *Array) FailDisk(i int) error {
	if !a.redundant() {
		return fmt.Errorf("raid: level %d cannot survive a failure", int(a.cfg.Level))
	}
	if i < 0 || i >= len(a.devs) {
		return fmt.Errorf("raid: no device %d in a %d-wide array", i, len(a.devs))
	}
	a.failed.Add(i)
	return nil
}

// ReturnDisk brings failed device i back with what it held when it failed,
// as a server host that was down comes back with its disks: its column is
// live again in every stripe outside its missed set, the stripes a write
// could not reach on it, and Resync repairs those.  A device with a rebuild
// in flight is left as it is: a spare replacing it stays the replacement.
func (a *Array) ReturnDisk(i int) {
	if a.rebuilds[i] == nil {
		a.failed.Remove(i)
	}
}

// Missed returns how many stripes are in device i's missed set.
func (a *Array) Missed(i int) int { return a.missed[i].Len() }

// redundant reports whether the level survives any failure at all.
func (a *Array) redundant() bool { return a.row.mirrored || a.row.checks > 0 }

// lost is the one loss rule (see ErrArrayFailed): it reports whether a stripe
// whose column i is out when out(i) has lost data.  i runs over the width; it
// may number roles or devices, since at Level 1 the two are the same and
// elsewhere only the count matters.
func (a *Array) lost(out func(i int) bool) bool {
	n := 0
	for i := range a.devs {
		if !out(i) {
			continue
		}
		if a.row.mirrored && out(i^1) { // pairs are (0,1), (2,3), ...
			return true
		}
		n++
	}
	return !a.row.mirrored && n > a.row.checks
}

// Lost reports whether the failed devices alone lose data: every stripe has
// a column on each of them.
func (a *Array) Lost() bool { return a.lost(a.failed.Has) }

// readLost reports whether stripe s is lost to a read.
func (a *Array) readLost(s int64) bool {
	return a.lost(func(dev int) bool { return !a.live(dev, s) })
}

// errLost returns the typed data-loss error for stripe s.
func errLost(s int64) error { return fmt.Errorf("raid: stripe %d: %w", s, ErrArrayFailed) }

// escalate handles an error a device returned after the controller's
// retries were exhausted: the device is marked failed and every later
// access takes the degraded path, or fails where that leaves its stripe
// lost.  The zero-length "fault" span records the escalation instant in the
// trace.
func (a *Array) escalate(p *sim.Proc, i int, err error) {
	a.stats.DeviceErrors++
	if a.failed.Has(i) {
		return
	}
	a.failed.Add(i)
	a.stats.DiskFailures++
	end := p.Span("fault", fmt.Sprintf("escalate:dev%d", i))
	end()
}

// devReadInto reads from device i into dst, escalating any error; it
// reports false when the data could not be obtained and the caller must
// reconstruct or give the column up.
func (a *Array) devReadInto(p *sim.Proc, i int, lba int64, dst []byte) bool {
	a.stats.DiskReads++
	if err := bytepath.ReadInto(a.devs[i], p, lba, dst); err != nil {
		a.escalate(p, i, err)
		return false
	}
	return true
}

// Failed reports whether device i is marked failed.
func (a *Array) Failed(i int) bool { return a.failed.Has(i) }

// live reports whether device dev holds a current column of a stripe: it is
// not failed, and the stripe is not in its missed set.
func (a *Array) live(dev int, stripe int64) bool {
	return !a.failed.Has(dev) && !a.missed[dev].Has(stripe)
}

// Roles.  A stripe's columns are numbered by role: data positions 0..k-1,
// then check columns 0..m-1 (role k is P, role k+1 is Q).  At Level 1 the
// roles are the devices themselves: data position pos is the pair of roles
// 2*pos (primary) and 2*pos+1 (mirror).  Every column of a stripe sits at the
// same LBA on its device, unitLBA(stripe).

// colDev returns the device holding a role's column.  The rotated layout is
// left-symmetric: P moves one device left every stripe, Q sits immediately to
// its right and the data columns follow cyclically, which spreads parity and
// data evenly so large sequential reads touch all disks.
func (a *Array) colDev(stripe int64, role int) int {
	if !a.row.rotated {
		return role // data in place, checks on the last devices
	}
	n := len(a.devs)
	return (n - 1 - int(stripe%int64(n)) + a.row.checks + role) % n
}

// Role is the inverse of colDev: the role device dev plays in a stripe, a
// data position below DataDisks and a check column from there on.
func (a *Array) Role(stripe int64, dev int) int {
	if !a.row.rotated {
		return dev
	}
	n := len(a.devs)
	return (dev + 1 + int(stripe%int64(n)) + a.dataDisks()) % n
}

// dataRole returns the role holding data position pos (the primary copy at
// Level 1).
func (a *Array) dataRole(pos int) int {
	if a.row.mirrored {
		return 2 * pos
	}
	return pos
}

// unitLBA returns the device LBA of a stripe's units.
func (a *Array) unitLBA(stripe int64) int64 { return stripe * int64(a.unitSecs) }

// lock returns the stripe's writer lock, creating it lazily.
func (a *Array) lock(stripe int64) *sim.Server {
	lk, ok := a.stripeLk[stripe]
	if !ok {
		lk = sim.NewServer(a.eng, fmt.Sprintf("stripe%d", stripe), 1)
		a.stripeLk[stripe] = lk
	}
	return lk
}

func (a *Array) checkRange(lba int64, sectors int) {
	if lba < 0 || sectors <= 0 || lba+int64(sectors) > a.Sectors() {
		//lint:allow simpanic out-of-range access is caller corruption, equivalent to indexing past a slice
		panic(fmt.Sprintf("raid: access [%d,+%d) out of %d logical sectors",
			lba, sectors, a.Sectors()))
	}
}

// extent is a contiguous run of logical sectors within one stripe unit.
type extent struct {
	stripe int64
	pos    int // data column within the stripe
	secOff int // sector offset within the unit
	secs   int // length in sectors
	bufOff int // offset into the request buffer, bytes
}

// extents splits a logical range into per-unit runs.
func (a *Array) extents(lba int64, sectors int) []extent {
	var out []extent
	unit := int64(a.unitSecs)
	nd := int64(a.dataDisks())
	bufOff := 0
	for sectors > 0 {
		u := lba / unit // logical unit index
		secOff := int(lba % unit)
		n := a.unitSecs - secOff
		if n > sectors {
			n = sectors
		}
		out = append(out, extent{
			stripe: u / nd,
			pos:    int(u % nd),
			secOff: secOff,
			secs:   n,
			bufOff: bufOff,
		})
		bufOff += n * a.secSize
		lba += int64(n)
		sectors -= n
	}
	return out
}

// SetXOR replaces the array's parity engine, for ablation experiments that
// compare hardware XOR against host-computed parity.
func (a *Array) SetXOR(x XOREngine) {
	if x == nil {
		x = SoftXOR{}
	}
	a.xor = x
}
