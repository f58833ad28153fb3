package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"

	"raidii/internal/cache"
	"raidii/internal/client"
	"raidii/internal/disk"
	"raidii/internal/hippi"
	"raidii/internal/host"
	"raidii/internal/lfs"
	"raidii/internal/raid"
	"raidii/internal/scsi"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/xbus"
	"raidii/internal/zebra"
)

// The ladder drives each layer's public entry point alone, from ONE
// simulated process, over the same two op lists: seq moves 64 MB in 1 MB
// calls, rand4k issues 2,048 seeded 4 KB ops.  With one process a call's
// host time is attributable (with several, a parked call's wall time
// belongs to whoever runs meanwhile).  raid, cache and lfs rungs sit on
// raid.NewMemDev and raid.SoftXOR, so their host cost excludes the disk
// model; a rung's self cost is its ns_per_kb minus the rung below at equal
// bytes.  Every byte read back is checked against the tape it was cut from;
// the time spent checking is taken out of the measurement.

// phase is one timed measurement on a rig.
type phase struct {
	host  string  // host-clock metric: elapsed host ns ÷ div
	rate  string  // simulated-clock metric: units ÷ simulated seconds
	acc   string  // accuracy metric: (rate − paper) ÷ paper
	paper float64 // the paper's figure for rate's quantity
	div   float64 // KB, ops, events or segments behind the host time (1 for a total)
	units float64 // MB (decimal) or ops delivered in simulated time
	// direct marks a rate that is not per simulated second: units is the
	// value itself (a byte ratio).
	direct bool
	run    func() error
}

// rig is a freshly assembled machine and the phases to time on it, in order.
type rig struct {
	layer  string
	eng    *sim.Engine
	phases []*phase
}

// ladder carries what the rigs share.
type ladder struct {
	small    bool
	seed     int64
	or       *oracle // the tape every rig's data is cut from
	excluded int64   // host ns spent verifying inside the current phase
	// sabotage, set by the tests only, may damage a rig's MemDevs after its
	// set-up so that verification has something to find.
	sabotage func(devs []*raid.MemDev)
}

// ladderReps is how many fresh rigs each rung is measured on.  The issue
// asks for five and for the whole ladder within 30 s; at 64 MB per rung this
// sandbox affords three, and the op lists were kept instead of the reps.
const ladderReps = 3

const (
	seqCall = 1 * mb
	unit    = 64 * kb // stripe unit of every array rig
)

func (l *ladder) seqBytes() int {
	if l.small {
		return 2 * mb
	}
	return 64 * mb
}

func (l *ladder) randOps() int {
	if l.small {
		return 64
	}
	return 2048
}

// Every rig's address space holds the tape repeated end to end: the byte at
// offset x is tape[x mod len(tape)].

// data returns the n bytes that belong at block-aligned offset off, as a
// slice of the tape when they do not wrap around its end.
func (l *ladder) data(off int64, n int) []byte {
	tape := l.or.tape
	at := int(off % int64(len(tape)))
	if at+n <= len(tape) {
		return tape[at : at+n]
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		take := len(tape) - at
		if take > n-len(out) {
			take = n - len(out)
		}
		out = append(out, tape[at:at+take]...)
		at = 0
	}
	return out
}

// calls cuts [0, total) into call-sized pieces and returns the data of each,
// built before the timer starts.
func (l *ladder) calls(total, call int) [][]byte {
	var out [][]byte
	for off := 0; off+call <= total; off += call {
		out = append(out, l.data(int64(off), call))
	}
	return out
}

// check verifies got against the tape, block by block, off the clock.
func (l *ladder) check(off int64, got []byte, want int) error {
	t0 := hostNow()
	defer func() { l.excluded += hostSince(t0) }()
	if len(got) != want {
		return fmt.Errorf("read at %d returned %d bytes, want %d", off, len(got), want)
	}
	first := int(off / blockSize)
	for i := 0; i*blockSize < len(got); i++ {
		if crc32.ChecksumIEEE(got[i*blockSize:(i+1)*blockSize]) != l.or.tapeCRC[(first+i)%tapeBlocks] {
			return fmt.Errorf("read at %d: block %d does not match what was written", off, first+i)
		}
	}
	return nil
}

// solo runs fn as the rig's one simulated process and drains the engine.
func solo(e *sim.Engine, fn func(p *sim.Proc) error) func() error {
	return func() error {
		var err error
		e.Spawn("ladder", func(p *sim.Proc) { err = fn(p) })
		e.Run()
		return err
	}
}

func kbOf(bytes int) float64   { return float64(bytes) / 1024 }
func mbOf(bytes int) float64   { return float64(bytes) / 1e6 }
func secs(bytes int) int       { return bytes / 512 }
func secOff(bytes int64) int64 { return bytes / 512 }

// blockDev is the shape the raid, cache and lfs boundaries share, so one
// pair of drivers serves the MemDev floor and every rung above it.
type blockDev interface {
	Read(p *sim.Proc, lba int64, n int) ([]byte, error)
	Write(p *sim.Proc, lba int64, data []byte) error
	Sectors() int64
	SectorSize() int
}

// countDev is the counting shim: it stands between two layers and counts
// the calls and bytes that cross.
type countDev struct {
	blockDev
	calls, bytes int64
}

func (c *countDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	c.calls++
	c.bytes += int64(n * c.SectorSize())
	return c.blockDev.Read(p, lba, n)
}

func (c *countDev) Write(p *sim.Proc, lba int64, data []byte) error {
	c.calls++
	c.bytes += int64(len(data))
	return c.blockDev.Write(p, lba, data)
}

// writeSeq writes bufs back to back from offset 0.
func writeSeq(p *sim.Proc, dev blockDev, bufs [][]byte) error {
	var off int64
	for _, b := range bufs {
		if err := dev.Write(p, secOff(off), b); err != nil {
			return err
		}
		off += int64(len(b))
	}
	return nil
}

// readChecked reads [0, total) in call-sized pieces through read and checks
// every piece against the tape: the one read driver of every rung.
func (l *ladder) readChecked(total, call int, read func(off int64, n int) ([]byte, error)) error {
	for off := 0; off+call <= total; off += call {
		got, err := read(int64(off), call)
		if err != nil {
			return err
		}
		if err := l.check(int64(off), got, call); err != nil {
			return err
		}
	}
	return nil
}

// readSeq is readChecked over a block device.
func (l *ladder) readSeq(p *sim.Proc, dev blockDev, total, call int) error {
	return l.readChecked(total, call, func(off int64, n int) ([]byte, error) {
		return dev.Read(p, secOff(off), secs(n))
	})
}

// rand4k returns the rig's seeded list of block-aligned offsets below span.
func (l *ladder) rand4k(span int) []int64 {
	rng := rand.New(rand.NewSource(l.seed))
	offs := make([]int64, l.randOps())
	for i := range offs {
		offs[i] = rng.Int63n(int64(span/blockSize)) * blockSize
	}
	return offs
}

// memArray builds a 16-wide array of MemDevs large enough for the seq list.
func (l *ladder) memArray(e *sim.Engine, level raid.Level) (*raid.Array, []*raid.MemDev, error) {
	const width = 16
	devBytes := l.seqBytes()/(width-2) + 2*mb // room above the data for LFS metadata
	devBytes -= devBytes % unit
	devs := make([]raid.Dev, width)
	mems := make([]*raid.MemDev, width)
	for i := range devs {
		mems[i] = raid.NewMemDev(int64(secs(devBytes)), 512)
		devs[i] = mems[i]
	}
	arr, err := raid.New(e, devs, raid.Config{Level: level, StripeUnitSectors: secs(unit)}, raid.SoftXOR{})
	return arr, mems, err
}

// parityClean is the untimed end-of-rig invariant for array rigs.
func parityClean(e *sim.Engine, arr *raid.Array) error {
	return solo(e, func(p *sim.Proc) error {
		if bad := arr.CheckParity(p); bad != 0 {
			return fmt.Errorf("CheckParity: %d inconsistent stripes", bad)
		}
		return nil
	})()
}

// rigs lists every rung, floor first.
func (l *ladder) rigs() []func() (*rig, error) {
	return []func() (*rig, error){
		l.simRig, l.diskRig, l.scsiRig, l.stringRig, l.xbusRig,
		func() (*rig, error) {
			return l.raidRig(raid.Level5, "raid.l5", "raid.l5_read_ns_per_kb", "raid.l5_degraded_read_ns_per_kb", 3)
		},
		func() (*rig, error) {
			return l.raidRig(raid.Level6, "raid.l6", "", "raid.l6_degraded2_read_ns_per_kb", 3, 9)
		},
		l.cacheRig, l.lfsRig, l.lfsSmallRig,
		l.serverHWRig, l.serverFSRig,
		func() (*rig, error) { return l.table1Rig(false) },
		func() (*rig, error) { return l.table1Rig(true) },
		l.hippiRig, l.clientRig, l.zebraRig,
	}
}

// simRig: the engine alone — timer events, hand-offs between two processes
// contending for one sim.Server, and process spawns.
func (l *ladder) simRig() (*rig, error) {
	e := sim.New()
	n := 200000
	if l.small {
		n = 2000
	}
	srv := sim.NewServer(e, "ladder:pingpong", 1)
	timer := &phase{host: "sim.timer_ns_per_event", div: float64(n), run: solo(e, func(p *sim.Proc) error {
		for i := 0; i < n; i++ {
			p.Wait(1000)
		}
		return nil
	})}
	handoff := &phase{host: "sim.handoff_ns", div: float64(n), run: func() error {
		for c := 0; c < 2; c++ {
			e.Spawn("pingpong", func(p *sim.Proc) {
				for i := 0; i < n/2; i++ {
					srv.Use(p, 1000) // the other process queues meanwhile and is handed the server
				}
			})
		}
		e.Run()
		return nil
	}}
	spawn := &phase{host: "sim.spawn_ns", div: float64(n / 4), run: func() error {
		for i := 0; i < n/4; i++ {
			e.Spawn("noop", func(*sim.Proc) {})
		}
		e.Run()
		return nil
	}}
	return &rig{layer: "sim", eng: e, phases: []*phase{timer, handoff, spawn}}, nil
}

// diskRig: one IBM 0661 — its byte store without the clock, then the timed
// model: sequential 1 MB reads and random 4 KB reads.
func (l *ladder) diskRig() (*rig, error) {
	e := sim.New()
	d, err := disk.New(e, "ladder-d0", disk.IBM0661())
	if err != nil {
		return nil, err
	}
	total := l.seqBytes()
	bufs := l.calls(total, seqCall)
	store := &phase{host: "disk.store_write_ns_per_kb", div: kbOf(total), run: func() error {
		for i, b := range bufs {
			d.WriteData(secOff(int64(i*seqCall)), b) // a fresh disk: page allocation included
		}
		return nil
	}}
	load := &phase{host: "disk.store_read_ns_per_kb", div: kbOf(total), run: func() error {
		return l.readChecked(total, seqCall, func(off int64, n int) ([]byte, error) {
			return d.ReadData(secOff(off), secs(n)), nil
		})
	}}
	seq := &phase{host: "disk.seq_read_ns_per_kb", rate: "disk.seq_read_sim_mbps", div: kbOf(total), units: mbOf(total),
		run: solo(e, func(p *sim.Proc) error {
			return l.readChecked(total, seqCall, func(off int64, n int) ([]byte, error) {
				return d.Read(p, secOff(off), secs(n), nil)
			})
		})}
	offs := l.rand4k(total)
	random := &phase{rate: "disk.rand4k_read_sim_iops", units: float64(len(offs)), run: solo(e, func(p *sim.Proc) error {
		for _, off := range offs {
			got, err := d.Read(p, secOff(off), secs(blockSize), nil)
			if err != nil {
				return err
			}
			if err := l.check(off, got, blockSize); err != nil {
				return err
			}
		}
		return nil
	})}
	return &rig{layer: "disk", eng: e, phases: []*phase{store, load, seq, random}}, nil
}

// scsiRig: the same drive behind a Cougar controller and its string.
func (l *ladder) scsiRig() (*rig, error) {
	e := sim.New()
	d, err := disk.New(e, "ladder-d0", disk.IBM0661())
	if err != nil {
		return nil, err
	}
	ad := scsi.NewController(e, "ladder-cougar", scsi.DefaultConfig()).Attach(d, 0)
	total := l.seqBytes()
	for i, b := range l.calls(total, seqCall) {
		d.WriteData(secOff(int64(i*seqCall)), b)
	}
	seq := &phase{host: "scsi.seq_read_ns_per_kb", rate: "scsi.seq_read_sim_mbps", div: kbOf(total), units: mbOf(total),
		run: solo(e, func(p *sim.Proc) error {
			return l.readChecked(total, seqCall, func(off int64, n int) ([]byte, error) {
				return ad.Read(p, secOff(off), secs(n), nil)
			})
		})}
	return &rig{layer: "scsi", eng: e, phases: []*phase{seq}}, nil
}

// stringRig is Fig. 7's saturated string: three drives streaming 64 KB
// reads concurrently on one SCSI string (the paper: about 3 MB/s).
func (l *ladder) stringRig() (*rig, error) {
	e := sim.New()
	ctl := scsi.NewController(e, "ladder-cougar", scsi.DefaultConfig())
	const drives = 3
	perDisk := 4 * mb
	if l.small {
		perDisk = mb
	}
	var ads []*scsi.Disk
	for i := 0; i < drives; i++ {
		d, err := disk.New(e, fmt.Sprintf("ladder-d%d", i), disk.IBM0661())
		if err != nil {
			return nil, err
		}
		ads = append(ads, ctl.Attach(d, 0))
	}
	ph := &phase{acc: "scsi.string_err_vs_paper", paper: 3.0, units: mbOf(drives * perDisk)}
	ph.run = func() error {
		var firstErr error
		for _, ad := range ads {
			ad := ad
			e.Spawn("stream", func(p *sim.Proc) {
				for off := 0; off < perDisk; off += unit {
					if _, err := ad.Read(p, secOff(int64(off)), secs(unit), nil); err != nil && firstErr == nil {
						firstErr = err
					}
				}
			})
		}
		e.Run()
		return firstErr
	}
	return &rig{layer: "scsi", eng: e, phases: []*phase{ph}}, nil
}

// xbusRig: the parity engine — one full-stripe XOR over 15 × 64 KB sources
// per call, then the accumulate form.
func (l *ladder) xbusRig() (*rig, error) {
	e := sim.New()
	xb := xbus.New(e, "ladder-xbus", xbus.DefaultConfig())
	const cols = 15
	srcs := make([][]byte, cols)
	for i := range srcs {
		srcs[i] = l.data(int64(i*unit), unit)
	}
	want := crc32.ChecksumIEEE(raid.SoftXOR{}.XOR(nil, srcs...))
	n := l.seqBytes() / (cols * unit)
	total := n * cols * unit
	full := &phase{host: "xbus.xor_ns_per_kb", rate: "xbus.xor_sim_mbps", div: kbOf(total), units: mbOf(total),
		run: solo(e, func(p *sim.Proc) error {
			for i := 0; i < n; i++ {
				out := xb.XOR(p, srcs...)
				t0 := hostNow()
				ok := crc32.ChecksumIEEE(out) == want
				l.excluded += hostSince(t0)
				if !ok {
					return fmt.Errorf("xbus.XOR: wrong parity")
				}
			}
			return nil
		})}
	dst := make([]byte, unit)
	into := &phase{host: "xbus.xor_into_ns_per_kb", div: kbOf(total), run: solo(e, func(p *sim.Proc) error {
		for i := 0; i < n*cols; i++ {
			xb.XORInto(p, dst, srcs[i%cols])
		}
		if n%2 == 1 && crc32.ChecksumIEEE(dst) != want {
			return fmt.Errorf("xbus.XORInto: wrong parity")
		}
		return nil
	})}
	return &rig{layer: "xbus", eng: e, phases: []*phase{full, into}}, nil
}

// raidRig: one array level on MemDevs — full-stripe writes, healthy reads
// (reported under readMetric when there is one), 4 KB read-modify-writes,
// reads with the dead devices failed (degradedMetric), and their rebuild.
func (l *ladder) raidRig(level raid.Level, prefix, readMetric, degradedMetric string, dead ...int) (*rig, error) {
	e := sim.New()
	arr, mems, err := l.memArray(e, level)
	if err != nil {
		return nil, err
	}
	stripe := arr.DataDisks() * unit
	total := l.seqBytes() / stripe * stripe
	bufs := l.calls(total, stripe)
	write := &phase{host: prefix + "_fullstripe_write_ns_per_kb", div: kbOf(total), run: solo(e, func(p *sim.Proc) error {
		if err := writeSeq(p, arr, bufs); err != nil {
			return err
		}
		if l.sabotage != nil {
			l.sabotage(mems)
		}
		return nil
	})}
	read := &phase{host: readMetric, div: kbOf(total), run: solo(e, func(p *sim.Proc) error { return l.readSeq(p, arr, total, seqCall) })}
	offs := l.rand4k(total)
	rmw := &phase{host: prefix + "_rmw4k_ns_per_op", div: float64(len(offs)), run: solo(e, func(p *sim.Proc) error {
		for _, off := range offs {
			// Rewriting a block with its own content leaves the tape layout
			// intact and costs the array exactly what any 4 KB write does.
			if err := arr.Write(p, secOff(off), l.data(off, blockSize)); err != nil {
				return err
			}
		}
		return nil
	})}
	degraded := &phase{host: degradedMetric, div: kbOf(total),
		run: solo(e, func(p *sim.Proc) error {
			for _, d := range dead {
				mems[d].Fail()
				if err := arr.FailDisk(d); err != nil {
					return err
				}
			}
			return l.readSeq(p, arr, total, seqCall)
		})}
	devBytes := int(mems[0].Sectors()) * 512
	rebuild := &phase{host: prefix + "_rebuild_ns_per_kb", div: kbOf(devBytes * len(dead)), run: solo(e, func(p *sim.Proc) error {
		for _, d := range dead {
			if _, err := arr.Reconstruct(p, d, raid.NewMemDev(mems[d].Sectors(), 512)); err != nil {
				return err
			}
		}
		return nil
	})}
	verify := &phase{run: func() error {
		if err := solo(e, func(p *sim.Proc) error { return l.readSeq(p, arr, total, seqCall) })(); err != nil {
			return err
		}
		return parityClean(e, arr)
	}}
	return &rig{layer: "raid", eng: e, phases: []*phase{write, read, rmw, degraded, rebuild, verify}}, nil
}

// cacheRig: the block cache over a MemDev RAID-5 — writes, cold reads that
// all miss (a sequential sweep eight times the cache), and reads of a
// resident region.
func (l *ladder) cacheRig() (*rig, error) {
	e := sim.New()
	arr, _, err := l.memArray(e, raid.Level5)
	if err != nil {
		return nil, err
	}
	size := 8 * mb
	if l.small {
		size = mb / 2
	}
	xb := xbus.New(e, "ladder-xbus", xbus.DefaultConfig())
	c, err := cache.New(e, arr, xb.Memory, cache.Config{SizeBytes: size, StageWrites: true})
	if err != nil {
		return nil, err
	}
	total := l.seqBytes()
	bufs := l.calls(total, seqCall)
	write := &phase{host: "cache.write_ns_per_kb", div: kbOf(total), run: solo(e, func(p *sim.Proc) error { return writeSeq(p, c, bufs) })}
	miss := &phase{host: "cache.miss_read_ns_per_kb", div: kbOf(total), run: solo(e, func(p *sim.Proc) error { return l.readSeq(p, c, total, seqCall) })}
	hot := size / 2
	warm := &phase{run: solo(e, func(p *sim.Proc) error { return l.readSeq(p, c, hot, hot) })}
	hit := &phase{host: "cache.hit_read_ns_per_kb", div: kbOf(total / hot * hot), run: solo(e, func(p *sim.Proc) error {
		before := c.Stats().Misses
		for i := 0; i < total/hot; i++ {
			if err := l.readSeq(p, c, hot, hot/4); err != nil {
				return err
			}
		}
		if c.Stats().Misses != before {
			return fmt.Errorf("cache: resident region missed")
		}
		return nil
	})}
	verify := &phase{run: func() error { return parityClean(e, arr) }}
	return &rig{layer: "cache", eng: e, phases: []*phase{write, miss, warm, hit, verify}}, nil
}

// lfsRig: the file system over a MemDev RAID-5 — one large file written and
// read back, then a remount and a check of the result.
func (l *ladder) lfsRig() (*rig, error) {
	e := sim.New()
	arr, _, err := l.memArray(e, raid.Level5)
	if err != nil {
		return nil, err
	}
	var fs *lfs.FS
	var f *lfs.File
	err = solo(e, func(p *sim.Proc) error {
		if fs, err = lfs.Format(p, e, arr, lfs.DefaultConfig()); err != nil {
			return err
		}
		f, err = fs.Create(p, "/big")
		return err
	})()
	if err != nil {
		return nil, err
	}
	total := l.seqBytes()
	bufs := l.calls(total, seqCall)
	write := &phase{host: "lfs.seq_write_ns_per_kb", div: kbOf(total), run: solo(e, func(p *sim.Proc) error {
		for i, b := range bufs {
			if _, err := f.WriteAt(p, b, int64(i*seqCall)); err != nil {
				return err
			}
		}
		return fs.Sync(p)
	})}
	readFile := func(p *sim.Proc) error {
		return l.readChecked(total, seqCall, func(off int64, n int) ([]byte, error) { return f.ReadAt(p, off, n) })
	}
	read := &phase{host: "lfs.seq_read_ns_per_kb", div: kbOf(total), run: solo(e, readFile)}
	mount := &phase{host: "lfs.mount_ns", div: 1, run: solo(e, func(p *sim.Proc) error {
		fs.Crash()
		if fs, err = lfs.Mount(p, e, arr); err != nil {
			return err
		}
		f, err = fs.Open(p, "/big")
		return err
	})}
	check := &phase{host: "lfs.check_ns", div: 1, run: solo(e, func(p *sim.Proc) error { return fsClean(p, fs) })}
	verify := &phase{run: func() error {
		if err := solo(e, readFile)(); err != nil {
			return err
		}
		return parityClean(e, arr)
	}}
	return &rig{layer: "lfs", eng: e, phases: []*phase{write, read, mount, check, verify}}, nil
}

// lfsSmallRig: the rand4k list as 4 KB file creations through a counting
// shim (write amplification), then the cleaner over the holes left by
// removing every other file.
func (l *ladder) lfsSmallRig() (*rig, error) {
	e := sim.New()
	arr, _, err := l.memArray(e, raid.Level5)
	if err != nil {
		return nil, err
	}
	shim := &countDev{blockDev: arr}
	var fs *lfs.FS
	err = solo(e, func(p *sim.Proc) error {
		fs, err = lfs.Format(p, e, shim, lfs.DefaultConfig())
		return err
	})()
	if err != nil {
		return nil, err
	}
	n := l.randOps()
	name := func(i int) string { return fmt.Sprintf("/s%04d", i) }
	create := &phase{host: "lfs.small_create_ns_per_op", rate: "lfs.write_amp", direct: true, div: float64(n)}
	create.run = solo(e, func(p *sim.Proc) error {
		before := shim.bytes
		for i := 0; i < n; i++ {
			f, err := fs.Create(p, name(i))
			if err != nil {
				return err
			}
			if _, err := f.WriteAt(p, l.data(int64(i)*blockSize, blockSize), 0); err != nil {
				return err
			}
		}
		if err := fs.Sync(p); err != nil {
			return err
		}
		create.units = float64(shim.bytes-before) / float64(n*blockSize)
		return nil
	})
	clean := &phase{host: "lfs.clean_ns_per_segment"}
	clean.run = solo(e, func(p *sim.Proc) error {
		cleaned, err := fs.Clean(p, fs.FreeSegments()+2)
		if err == nil && cleaned == 0 {
			err = fmt.Errorf("lfs.Clean reclaimed nothing")
		}
		clean.div = float64(cleaned)
		return err
	})
	holes := &phase{run: solo(e, func(p *sim.Proc) error {
		for i := 0; i < n; i += 2 {
			if err := fs.Remove(p, name(i)); err != nil {
				return err
			}
		}
		return fs.Sync(p)
	})}
	verify := &phase{run: func() error {
		err := solo(e, func(p *sim.Proc) error {
			for i := 1; i < n; i += 2 {
				f, err := fs.Open(p, name(i))
				if err != nil {
					return err
				}
				got, err := f.ReadAt(p, 0, blockSize)
				if err != nil {
					return err
				}
				if err := l.check(int64(i)*blockSize, got, blockSize); err != nil {
					return err
				}
			}
			return nil
		})()
		if err != nil {
			return err
		}
		return parityClean(e, arr)
	}}
	return &rig{layer: "lfs", eng: e, phases: []*phase{create, holes, clean, verify}}, nil
}

// serverHWRig: the Fig. 8 board's raw high-bandwidth path, no file system.
func (l *ladder) serverHWRig() (*rig, error) {
	sys, err := server.New(server.Fig8Config())
	if err != nil {
		return nil, err
	}
	b := sys.Boards[0]
	total := l.seqBytes()
	op := func(fn func(p *sim.Proc, offSectors int64, size int) error) func() error {
		return solo(sys.Eng, func(p *sim.Proc) error {
			for off := 0; off < total; off += seqCall {
				if err := fn(p, secOff(int64(off)), seqCall); err != nil {
					return err
				}
			}
			return nil
		})
	}
	write := &phase{host: "server.hw_write_ns_per_kb", div: kbOf(total), run: op(b.HardwareWrite)}
	read := &phase{host: "server.hw_read_ns_per_kb", div: kbOf(total), run: op(b.HardwareRead)}
	return &rig{layer: "server", eng: sys.Eng, phases: []*phase{write, read}}, nil
}

// serverFSRig: the Fig. 8 board through LFS — Board.FSWrite, Board.FSRead,
// and 4 KB DurableWrites into a 4 MB NVRAM region.
func (l *ladder) serverFSRig() (*rig, error) {
	cfg := server.Fig8Config()
	cfg.NVRAMBytes = 4 * mb
	sys, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	e, b := sys.Eng, sys.Boards[0]
	var f, small *server.FSFile
	err = solo(e, func(p *sim.Proc) error {
		if err := b.FormatFS(p); err != nil {
			return err
		}
		if f, err = b.CreateFS(p, "/big"); err != nil {
			return err
		}
		small, err = b.CreateFS(p, "/small")
		return err
	})()
	if err != nil {
		return nil, err
	}
	total := l.seqBytes()
	bufs := l.calls(total, seqCall)
	write := &phase{host: "server.fs_write_ns_per_kb", rate: "server.fs_write_sim_mbps", div: kbOf(total), units: mbOf(total),
		run: solo(e, func(p *sim.Proc) error {
			for i, buf := range bufs {
				if err := b.FSWrite(p, f, int64(i*seqCall), buf); err != nil {
					return err
				}
			}
			return b.FS.Sync(p)
		})}
	read := &phase{host: "server.fs_read_ns_per_kb", rate: "server.fs_read_sim_mbps", div: kbOf(total), units: mbOf(total),
		run: solo(e, func(p *sim.Proc) error {
			return l.readChecked(total, seqCall, func(off int64, n int) ([]byte, error) { return b.FSRead(p, f, off, n) })
		})}
	n := l.randOps()
	durable := &phase{host: "server.durable4k_ns_per_op", div: float64(n), run: solo(e, func(p *sim.Proc) error {
		for i := 0; i < n; i++ {
			off := int64(i) * blockSize
			if err := b.DurableWrite(p, small, off, l.data(off, blockSize)); err != nil {
				return err
			}
		}
		return b.DrainNVRAM(p)
	})}
	verify := &phase{run: solo(e, func(p *sim.Proc) error {
		got, err := b.FSRead(p, small, 0, n*blockSize)
		if err != nil {
			return err
		}
		if err := l.check(0, got, n*blockSize); err != nil {
			return err
		}
		return fsClean(p, b.FS)
	})}
	return &rig{layer: "server", eng: e, phases: []*phase{write, read, durable, verify}}, nil
}

// table1Rig is the paper's Table 1 condition: 24 disks plus the fifth
// Cougar, 1.6 MB sequential requests, four outstanding (31 MB/s reads,
// 23 MB/s writes).
func (l *ladder) table1Rig(wr bool) (*rig, error) {
	const req, outstanding = 1600 * kb, 4
	ops := 48
	if l.small {
		ops = 8
	}
	cfg := server.DefaultConfig()
	cfg.FifthCougar = true
	sys, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	b, e := sys.Boards[0], sys.Eng
	ph := &phase{acc: "server.hw_read_err_vs_paper", paper: 31, units: mbOf(ops * req)}
	if wr {
		ph.acc, ph.paper = "server.hw_write_err_vs_paper", 23
	}
	ph.run = func() error {
		var firstErr error
		next := 0
		for w := 0; w < outstanding; w++ {
			e.Spawn("table1", func(p *sim.Proc) {
				for next < ops {
					off := secOff(int64(next) * req)
					next++
					var err error
					if wr {
						err = b.HardwareWrite(p, off, req)
					} else {
						err = b.HardwareRead(p, off, req)
					}
					if err != nil && firstErr == nil {
						firstErr = err
					}
				}
			})
		}
		e.Run()
		return firstErr
	}
	return &rig{layer: "server", eng: e, phases: []*phase{ph}}, nil
}

// hippiRig: XBUS memory → HIPPI source → destination → XBUS memory in 1 MB
// packets (Fig. 6's plateau: 38.5 MB/s).
func (l *ladder) hippiRig() (*rig, error) {
	e := sim.New()
	cfg := hippi.DefaultConfig()
	xb := xbus.New(e, "ladder-xbus", xbus.DefaultConfig())
	ep := &hippi.Endpoint{Name: "ladder-xbus", Out: xb.HIPPIS.Out(), In: xb.HIPPID.In(), Setup: cfg.PacketSetup}
	total := l.seqBytes()
	send := &phase{host: "hippi.send_ns_per_kb", rate: "hippi.send_sim_mbps", acc: "hippi.err_vs_paper", paper: 38.5,
		div: kbOf(total), units: mbOf(total), run: solo(e, func(p *sim.Proc) error {
			for off := 0; off < total; off += seqCall {
				hippi.Loopback(p, ep, cfg, seqCall)
			}
			return nil
		})}
	return &rig{layer: "hippi", eng: e, phases: []*phase{send}}, nil
}

// clientRig: one SPARCstation 10/51 on the Ultranet using the client
// library against the Fig. 8 server (§3.4: 3.2 MB/s reads).
func (l *ladder) clientRig() (*rig, error) {
	sys, err := server.New(server.Fig8Config())
	if err != nil {
		return nil, err
	}
	e, b := sys.Eng, sys.Boards[0]
	ws := client.NewWorkstation(sys, "ladder-ss10", host.SPARCstation10())
	var f *client.File
	err = solo(e, func(p *sim.Proc) error {
		if err := b.FormatFS(p); err != nil {
			return err
		}
		f, err = ws.Create(p, 0, "/net")
		return err
	})()
	if err != nil {
		return nil, err
	}
	total := l.seqBytes() / 4 // the client is copy-bound at ~3 MB/s: 16 MB is five simulated seconds
	each := func(call int, fn func(p *sim.Proc, off int64, n int) error) func() error {
		return solo(e, func(p *sim.Proc) error {
			for off := 0; off < total; off += call {
				if err := fn(p, int64(off), call); err != nil {
					return err
				}
			}
			return b.FS.Sync(p)
		})
	}
	read := func(p *sim.Proc, off int64, n int) error {
		_, err := f.Read(p, off, n)
		return err
	}
	write := &phase{host: "client.write_ns_per_kb", div: kbOf(total), run: each(seqCall, func(p *sim.Proc, off int64, n int) error {
		_, err := f.Write(p, off, n)
		return err
	})}
	seq := &phase{host: "client.read_ns_per_kb", rate: "client.read_sim_mbps", div: kbOf(total), units: mbOf(total), run: each(seqCall, read)}
	// The paper's figure is for one large transfer, not 1 MB calls.
	whole := &phase{acc: "client.read_err_vs_paper", paper: 3.2, units: mbOf(total), run: each(total, read)}
	return &rig{layer: "client", eng: e, phases: []*phase{write, seq, whole}}, nil
}

// zebraRig: the striped store over four Fig. 8 servers — whole-stripe
// writes and reads, reads with one host down, and the rebuild of what a
// write during the outage left stale.
func (l *ladder) zebraRig() (*rig, error) {
	cfg := server.Fig8Config()
	cfg.Servers = 4
	fl, err := server.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	e := fl.Eng
	nic := sim.NewLink(e, "ladder-client-nic", cfg.HIPPI.RingMBps, 0)
	ep := &hippi.Endpoint{Name: "ladder-client", Out: nic, In: nic, Setup: cfg.HIPPI.PacketSetup}
	fl.RegisterClientEndpoint(ep)
	var z *zebra.Store
	err = solo(e, func(p *sim.Proc) error {
		for _, sys := range fl.Servers {
			if err := sys.Boards[0].FormatFS(p); err != nil {
				return err
			}
		}
		if z, err = zebra.New(fl, ep, zebra.DefaultConfig()); err != nil {
			return err
		}
		return z.Create(p, "big")
	})()
	if err != nil {
		return nil, err
	}
	stripe := z.StripeBytes()
	total := l.seqBytes() / stripe * stripe
	if total == 0 {
		total = stripe
	}
	bufs := l.calls(total, stripe)
	writeAll := func(p *sim.Proc) error {
		for i, b := range bufs {
			if err := z.Write(p, "big", int64(i*stripe), b); err != nil {
				return err
			}
		}
		return z.SyncAll(p)
	}
	readAll := func(p *sim.Proc) error {
		return l.readChecked(total, stripe, func(off int64, n int) ([]byte, error) { return z.Read(p, "big", off, n) })
	}
	const victim = 1
	write := &phase{host: "zebra.write_ns_per_kb", rate: "zebra.write_sim_mbps", div: kbOf(total), units: mbOf(total), run: solo(e, writeAll)}
	read := &phase{host: "zebra.read_ns_per_kb", rate: "zebra.read_sim_mbps", div: kbOf(total), units: mbOf(total), run: solo(e, readAll)}
	degraded := &phase{host: "zebra.degraded_read_ns_per_kb", div: kbOf(total), run: solo(e, func(p *sim.Proc) error {
		fl.Servers[victim].SetDown(true)
		return readAll(p)
	})}
	stale := &phase{run: solo(e, writeAll)} // every fragment on the dead host goes stale
	rebuild := &phase{host: "zebra.rebuild_ns_per_kb"}
	rebuild.run = solo(e, func(p *sim.Proc) error {
		fl.Servers[victim].SetDown(false)
		n, err := z.RebuildServer(p, victim)
		rebuild.div = kbOf(n * stripe / 3) // three data fragments per stripe
		if err == nil && n == 0 {
			err = fmt.Errorf("zebra: nothing to rebuild")
		}
		return err
	})
	verify := &phase{run: solo(e, func(p *sim.Proc) error {
		if err := z.SyncAll(p); err != nil {
			return err
		}
		return readAll(p)
	})}
	return &rig{layer: "zebra", eng: e, phases: []*phase{write, read, degraded, stale, rebuild, verify}}, nil
}

// runLadder measures every rung reps times on fresh rigs and reports the
// median and quartiles of each host-clock metric; simulated-clock metrics
// must agree across reps.
func runLadder(seed int64, reps int, small bool, log *spanLog) (map[string]stat, error) {
	l := &ladder{small: small, seed: seed, or: newOracle(seed)}
	return l.measure(reps, log)
}

func (l *ladder) measure(reps int, log *spanLog) (map[string]stat, error) {
	root := log.begin(-1, "ladder", 0)
	defer log.end(root)
	hostVals := map[string][]float64{}
	exact := map[string]float64{}
	for _, build := range l.rigs() {
		for rep := 0; rep < reps; rep++ {
			quiesce()
			rg, err := build()
			if err != nil {
				return nil, err
			}
			layer := log.begin(root, rg.layer, 0)
			err = l.timeRig(rg, layer, log, hostVals, exact)
			log.end(layer)
			rg.eng.Shutdown()
			if err != nil {
				return nil, fmt.Errorf("%s rig: %w", rg.layer, err)
			}
		}
	}
	out := map[string]stat{}
	for name, vals := range hostVals {
		m, _ := lookup(name)
		out[name] = hostStat(m.Unit, vals)
	}
	for name, v := range exact {
		m, _ := lookup(name)
		out[name] = stat{Unit: m.Unit, Value: v, Q1: v, Q3: v}
	}
	return out, nil
}

// timeRig runs one rig's phases in order and files what each measured.
func (l *ladder) timeRig(rg *rig, parent int, log *spanLog, hostVals map[string][]float64, exact map[string]float64) error {
	for _, ph := range rg.phases {
		name := "untimed"
		for _, n := range []string{ph.acc, ph.rate, ph.host} {
			if n != "" {
				name = n
			}
		}
		quiesce() // the previous phase's garbage is not this phase's cost
		span := log.begin(parent, name, 0)
		l.excluded = 0
		sim0, t0 := rg.eng.Now(), hostNow()
		err := ph.run()
		ns := hostSince(t0) - l.excluded
		log.end(span)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if ph.host != "" {
			hostVals[ph.host] = append(hostVals[ph.host], ratio(float64(ns), ph.div))
		}
		if ph.rate == "" && ph.acc == "" {
			continue
		}
		rate := ph.units
		if !ph.direct {
			rate = ratio(ph.units, rg.eng.Now().Sub(sim0).Seconds())
		}
		record := func(metric string, v float64) error {
			if old, seen := exact[metric]; seen && old != v {
				return fmt.Errorf("%s differs between ladder reps: %v vs %v", metric, old, v)
			}
			exact[metric] = v
			return nil
		}
		if ph.rate != "" {
			if err := record(ph.rate, rate); err != nil {
				return err
			}
		}
		if ph.acc != "" {
			if err := record(ph.acc, (rate-ph.paper)/ph.paper); err != nil {
				return err
			}
		}
	}
	return nil
}
