package lfs

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"raidii/internal/raid"
	"raidii/internal/sim"
)

// delayDev is a MemDev whose commands take simulated time: every read takes
// read and every write takes write, and they overlap freely — unless serial
// is set, when reads go one at a time.  It counts the commands it is given.
type delayDev struct {
	*raid.MemDev
	read, write   time.Duration
	serial        *sim.Server
	reads, writes int
}

func (d *delayDev) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	d.reads++
	if d.serial != nil {
		d.serial.Acquire(p)
		defer d.serial.Release()
	}
	p.Wait(d.read)
	return d.MemDev.ReadInto(p, lba, dst)
}

func (d *delayDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	out := make([]byte, n*d.SectorSize())
	if err := d.ReadInto(p, lba, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (d *delayDev) Write(p *sim.Proc, lba int64, data []byte) error {
	d.writes++
	p.Wait(d.write)
	return d.MemDev.Write(p, lba, data)
}

// cleanerRig is a log of 64 KB segments on a delayDev (20 ms reads, 3 ms
// writes) whose older segments each hold a few one-block files, /kNN, among
// dead garbage, and a reserve eight above the free count: the next seal
// starts the cleaner, and it cleans several victims.  files[i] is /kNN and
// want[i] its contents.  The directory and every inode are cached, so the
// trigger reads nothing from the device.
func cleanerRig(t *testing.T) (e *sim.Engine, fs *FS, dev *delayDev, files []*File, want [][]byte) {
	t.Helper()
	e = sim.New()
	dev = &delayDev{MemDev: raid.NewMemDev(8<<20/512, 512), read: 20 * time.Millisecond, write: 3 * time.Millisecond}
	run(e, func(p *sim.Proc) {
		var err error
		if fs, err = Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			f, err := fs.Create(p, fmt.Sprintf("/k%02d", i))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, pinPattern(BlockSize, byte(i)))
			if _, err := f.WriteAt(p, want[i], 0); err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			g, err := fs.Create(p, fmt.Sprintf("/g%02d", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.WriteAt(p, pinPattern(3*BlockSize, 0xee), 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fs.Create(p, "/trigger"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if err := fs.Remove(p, fmt.Sprintf("/g%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/trigger"); err != nil { // caches the directory block
			t.Fatal(err)
		}
	})
	fs.cfg.CleanReserve = fs.FreeSegments() + 8
	return e, fs, dev, files, want
}

// trigger writes a block of /trigger and syncs: the seal starts the
// cleaner, 3 ms after the call, once it has landed.
func trigger(t *testing.T, p *sim.Proc, fs *FS) {
	t.Helper()
	f, err := fs.Open(p, "/trigger")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(p, pinPattern(BlockSize, 0x7f), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(p); err != nil {
		t.Fatal(err)
	}
}

// inVictim returns the files whose block 0 is in segment v.
func inVictim(fs *FS, files []*File, v int) []int {
	var out []int
	for i, f := range files {
		if in := fs.icache[f.inum]; in != nil && v >= 0 && fs.segOf(in.Ptrs[0]) == v {
			out = append(out, i)
		}
	}
	return out
}

// awaitVictim polls until the cleaner picks a victim holding at least n of
// files, and returns it with the time it was seen, at most 1 ms after the
// pick.  The cleaner reads the victim's summary for the next 20 ms and its
// live blocks for the 20 after.
func awaitVictim(t *testing.T, p *sim.Proc, fs *FS, files []*File, n int) (int, sim.Time) {
	t.Helper()
	for seen := -1; ; p.Wait(time.Millisecond) {
		if v := fs.victim; v != seen {
			if seen = v; len(inVictim(fs, files, v)) >= n {
				return v, p.Now()
			}
		}
		if p.Now() > sim.Time(time.Minute) {
			t.Fatalf("no victim holds %d files", n)
		}
	}
}

// TestCleanerReadsOffTheLock: while the cleaner reads its victim, another
// process's read of a block still staged in memory takes the lock and
// completes at once.  A cleaner that read under fs.mu held it for the whole
// victim, so the read finished only after the victim was freed.
func TestCleanerReadsOffTheLock(t *testing.T) {
	e, fs, _, _, _ := cleanerRig(t)
	hot := pinPattern(BlockSize, 0x42)
	start := e.Now()
	e.Spawn("trigger", func(p *sim.Proc) {
		f, err := fs.Open(p, "/trigger")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, hot, BlockSize); err != nil { // staged; the Sync's seal starts the cleaner
			t.Fatal(err)
		}
		trigger(t, p, fs)
		if _, err := f.WriteAt(p, hot, 2*BlockSize); err != nil {
			t.Fatal(err)
		}
	})
	at := start.Add(10 * time.Millisecond) // the cleaner reads its first summary over 3–23 ms
	done := false
	e.At(at, "reader", func(p *sim.Proc) {
		f, err := fs.Open(p, "/trigger")
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.ReadAt(p, 2*BlockSize, BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if waited := p.Now().Sub(at); waited != 0 || fs.Stats().SegmentsCleaned != 0 {
			t.Fatalf("the read waited %v, until %d segments were cleaned: the cleaner held the lock while it read", waited, fs.Stats().SegmentsCleaned)
		}
		if !bytes.Equal(got, hot) {
			t.Fatal("the staged block reads back wrong")
		}
		done = true
	})
	e.Run()
	if !done || fs.Stats().SegmentsCleaned == 0 {
		t.Fatalf("read done %v, %d segments cleaned: the rig did not run the cleaner", done, fs.Stats().SegmentsCleaned)
	}
}

// TestCleanerLeavesBlocksThatDiedDuringItsRead: while the cleaner reads a
// victim's live blocks, one file with a block there is overwritten and
// another removed.  Neither block is moved back: the first file reads its
// new bytes, the second stays gone, the file system checks clean and the
// victim is freed with nothing live in it.
func TestCleanerLeavesBlocksThatDiedDuringItsRead(t *testing.T) {
	e, fs, _, files, want := cleanerRig(t)
	e.Spawn("trigger", func(p *sim.Proc) { trigger(t, p, fs) })
	overwritten, removed := -1, -1
	e.Spawn("mutator", func(p *sim.Proc) {
		victim, seen := awaitVictim(t, p, fs, files, 2)
		p.WaitUntil(seen.Add(24 * time.Millisecond))
		in := inVictim(fs, files, victim)
		overwritten, removed = in[0], in[1]
		want[overwritten] = pinPattern(BlockSize, 0xc3)
		if _, err := files[overwritten].WriteAt(p, want[overwritten], 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(p, fmt.Sprintf("/k%02d", removed)); err != nil {
			t.Fatal(err)
		}
		for fs.victim == victim {
			p.Wait(time.Millisecond)
		}
		if !fs.free.Has(victim) || fs.usageLive[victim] != 0 {
			t.Fatalf("victim %d: free %v, %d live bytes after the clean", victim, fs.free.Has(victim), fs.usageLive[victim])
		}
	})
	e.Run()
	run(e, func(p *sim.Proc) {
		for i, f := range files {
			if i == removed {
				if _, err := fs.Open(p, fmt.Sprintf("/k%02d", i)); err != ErrNotExist {
					t.Fatalf("removed /k%02d: open returns %v", i, err)
				}
				continue
			}
			got, err := f.ReadAt(p, 0, BlockSize)
			if err != nil || !bytes.Equal(got, want[i]) {
				t.Fatalf("/k%02d reads back wrong (overwritten: %v, err %v)", i, i == overwritten, err)
			}
		}
		if r, err := fs.Check(p); err != nil || !r.OK() {
			t.Fatalf("check: %+v, err %v", r, err)
		}
	})
}

// TestCrashDuringCleanerReadWritesNothing: a crash while the cleaner reads a
// victim's summary ends the process when the read returns: no device
// command is issued after the crash, and no process is left behind.
func TestCrashDuringCleanerReadWritesNothing(t *testing.T) {
	e, fs, dev, files, _ := cleanerRig(t)
	e.Spawn("trigger", func(p *sim.Proc) { trigger(t, p, fs) })
	var reads, writes int
	e.Spawn("crash", func(p *sim.Proc) {
		_, seen := awaitVictim(t, p, fs, files, 1)
		p.WaitUntil(seen.Add(10 * time.Millisecond))
		fs.Crash()
		reads, writes = dev.reads, dev.writes
	})
	e.Run()
	if dev.reads != reads || dev.writes != writes {
		t.Fatalf("after the crash: %d reads and %d writes issued", dev.reads-reads, dev.writes-writes)
	}
	if e.Live() != 0 {
		t.Fatalf("%d processes still live after the run", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("%d processes live after Shutdown", e.Live())
	}
}

// TestPartialWriteAfterCleanerMoveUsesCurrentBytes: a partial write reads its
// block off the lock; meanwhile the cleaner moves the block and another write
// changes a different part of it at its new address, which is then sealed.
// The first write must build on those bytes, not on what it read.
func TestPartialWriteAfterCleanerMoveUsesCurrentBytes(t *testing.T) {
	e, fs, _, files, want := cleanerRig(t)
	e.Spawn("trigger", func(p *sim.Proc) { trigger(t, p, fs) })
	x, moved := -1, false
	e.Spawn("first", func(p *sim.Proc) {
		victim, seen := awaitVictim(t, p, fs, files, 1)
		x = inVictim(fs, files, victim)[0]
		p.WaitUntil(seen.Add(24 * time.Millisecond))
		e.Spawn("second", func(p *sim.Proc) { // once the cleaner has moved x
			for fs.victim == victim {
				p.Wait(time.Millisecond)
			}
			moved = fs.segOf(fs.icache[files[x].inum].Ptrs[0]) != victim
			data := pinPattern(200, 0xb2)
			copy(want[x][2000:], data)
			if _, err := files[x].WriteAt(p, data, 2000); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(p); err != nil {
				t.Fatal(err)
			}
		})
		data := pinPattern(100, 0xa1)
		copy(want[x][100:], data)
		if _, err := files[x].WriteAt(p, data, 100); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
	if !moved {
		t.Fatal("the cleaner did not move the block while the first write read it")
	}
	run(e, func(p *sim.Proc) {
		got, err := files[x].ReadAt(p, 0, BlockSize)
		if err != nil || !bytes.Equal(got, want[x]) {
			t.Fatalf("the block lost a write (err %v)", err)
		}
	})
}

// TestCheckFansOut: Check on a file system of 600-odd inodes — files in six
// directories, some with indirect and double-indirect blocks — loads a level
// at a time, so on a device whose reads overlap it takes under a quarter of
// the time it takes where they go one at a time, and both report the same.
func TestCheckFansOut(t *testing.T) {
	e := sim.New()
	mem := raid.NewMemDev(32<<20/512, 512)
	overlap := &delayDev{MemDev: mem, read: time.Millisecond}
	oneByOne := &delayDev{MemDev: mem, read: time.Millisecond, serial: sim.NewServer(e, "serial", 1)}
	const dirs, perDir = 6, 100
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, overlap, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < dirs; d++ {
			if err := fs.Mkdir(p, fmt.Sprintf("/d%d", d)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < perDir; i++ {
				f, err := fs.Create(p, fmt.Sprintf("/d%d/f%03d", d, i))
				if err != nil {
					t.Fatal(err)
				}
				var off int64
				switch i % 50 {
				case 7:
					off = (NDirect + 3) * BlockSize
				case 8:
					off = (NDirect + PtrsPerBlock + 3) * BlockSize
				}
				if _, err := f.WriteAt(p, pinPattern(BlockSize+i, byte(i)), off); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		fs.Crash()
	})
	check := func(dev *delayDev) (*CheckReport, sim.Duration) {
		var r *CheckReport
		var took sim.Duration
		run(e, func(p *sim.Proc) {
			fs, err := Mount(p, e, dev)
			if err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if r, err = fs.Check(p); err != nil {
				t.Fatal(err)
			}
			took = p.Now().Sub(start)
			fs.Crash()
		})
		return r, took
	}
	r1, fanned := check(overlap)
	r2, serial := check(oneByOne)
	if !r1.OK() || r1.Inodes != 1+dirs+dirs*perDir || r1.Dirs != 1+dirs {
		t.Fatalf("report: %+v", r1)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("reports differ:\n overlapping reads %+v\n one at a time     %+v", r1, r2)
	}
	if fanned*4 >= serial {
		t.Fatalf("Check took %v with overlapping reads and %v one at a time: not fanned out", fanned, serial)
	}
}

// TestCheckpointThatCleansSurvivesRemountAfterReuse: a checkpoint on a log
// down to its last free segment cleans inside its inode-map append.  The
// victims hold live inodes, which move, and live blocks of files whose inodes
// are elsewhere, which the moves leave dirty.  The checkpoint must record
// where the cleaner put all of them: once the cleaned segments have been
// reused after a remount, a map staged from before the clean, or an inode
// left unflushed, points into foreign bytes.
//
// Two logs make the two cases: in the first each victim holds one file's
// blocks and inode, in the second the inodes of half its files were written
// again later.
func TestCheckpointThatCleansSurvivesRemountAfterReuse(t *testing.T) {
	t.Run("inodes move", func(t *testing.T) { checkpointThatCleans(t, false) })
	t.Run("blocks move without their inodes", func(t *testing.T) { checkpointThatCleans(t, true) })
}

func checkpointThatCleans(t *testing.T, rewriteInodes bool) {
	e, fs := newFS(t, 64, 1)
	dev := fs.dev
	files := map[string][]byte{}
	run(e, func(p *sim.Proc) {
		write := func(name string, data []byte, off int) {
			t.Helper()
			f, err := fs.Open(p, name)
			if err == ErrNotExist {
				f, err = fs.Create(p, name)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(p, data, int64(off)); err != nil {
				t.Fatal(err)
			}
			files[name] = append(files[name][:off], data...)
		}
		// Each Sync seals a segment: a new file's three blocks and inode, and
		// the directory block and root inode the next Sync kills.  With
		// rewriteInodes, an even one also holds a one-block file that stays
		// as it is, and an odd one a fourth block of the file before, and so
		// that file's inode.
		fs.cfg.CleanReserve = 0 // no cleaning while the log fills
		for n := 0; fs.FreeSegments() > 1; n++ {
			if n == 400 {
				t.Fatal("the log never filled")
			}
			write(fmt.Sprintf("/f%03d", n), pinPattern(3*BlockSize, byte(n)), 0)
			switch {
			case !rewriteInodes:
			case n%2 == 0:
				write(fmt.Sprintf("/g%03d", n), pinPattern(BlockSize, byte(n)+0x40), 0)
			default:
				write(fmt.Sprintf("/f%03d", n-1), pinPattern(BlockSize, byte(n)+0x80), 3*BlockSize)
			}
			if err := fs.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
		fs.cfg.CleanReserve = 3
		wasFree := slices.Collect(fs.free.All())
		moved := fs.Stats().BlocksMoved
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		var cleaned []int
		for s := range fs.free.All() {
			if !slices.Contains(wasFree, s) {
				cleaned = append(cleaned, s)
			}
		}
		if len(cleaned) == 0 || fs.Stats().BlocksMoved == moved {
			t.Fatalf("the checkpoint cleaned %v and moved %d blocks", cleaned, fs.Stats().BlocksMoved-moved)
		}
		fs.Crash()

		fs2, err := Mount(p, e, dev)
		if err != nil {
			t.Fatal(err)
		}
		seq := fs2.segSeq
		f, err := fs2.Create(p, "/reuse")
		if err != nil {
			t.Fatal(err)
		}
		reused := func() bool {
			for _, s := range cleaned {
				if fs2.free.Has(s) || fs2.usageSeq[s] < seq {
					return false
				}
			}
			return true
		}
		for round := 0; !reused(); round++ {
			if round == 400 {
				t.Fatalf("segments %v never reused", cleaned)
			}
			if _, err := f.WriteAt(p, pinPattern(8*BlockSize, byte(round)), 0); err != nil {
				t.Fatal(err)
			}
			if err := fs2.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
		r, err := fs2.Check(p)
		if err != nil || !r.OK() {
			t.Fatalf("check after remount and reuse: %+v, err %v", r, err)
		}
		for _, name := range slices.Sorted(maps.Keys(files)) {
			g, err := fs2.Open(p, name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := g.ReadAt(p, 0, len(files[name])+1)
			if err != nil || !bytes.Equal(got, files[name]) {
				t.Fatalf("%s reads back wrong (err %v)", name, err)
			}
		}
	})
}
