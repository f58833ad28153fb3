package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"raidii/internal/raid"
	"raidii/internal/sim"
)

// serialDev is a slowDev that, like an array, writes one request at a time:
// a backlog of segment writes takes its length in write times to drain.
type serialDev struct {
	*slowDev
	arm *sim.Server
}

func (d *serialDev) Write(p *sim.Proc, lba int64, data []byte) error {
	d.arm.Acquire(p)
	defer d.arm.Release()
	return d.slowDev.Write(p, lba, data)
}

// TestSegmentPipelineIsBounded: four writers stream 24 MB each through one
// file system.  However far ahead of the device they could run, the images
// that hold blocks the device does not have never number more than the pool,
// the writers wait for the rest, and the Sync after the last write has at most
// a pool's worth of segment writes to wait for — not the whole run's.
func TestSegmentPipelineIsBounded(t *testing.T) {
	const writers, perWriter, req = 4, 24 << 20, 256 << 10
	e := sim.New()
	dev := &serialDev{slowDev: newSlowDev(128), arm: sim.NewServer(e, "dev", 1)}
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		files := make([]*File, writers)
		for i := range files {
			if files[i], err = fs.Create(p, fmt.Sprintf("/w%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}

		writing := true
		most := 0
		e.Spawn("probe", func(q *sim.Proc) {
			for writing {
				most = max(most, fs.Pending())
				q.Wait(100 * time.Microsecond)
			}
		})
		buf := pinPattern(req, 0x5e)
		g := p.Fork()
		for _, f := range files {
			g.Go("writer", func(q *sim.Proc) error {
				for off := 0; off < perWriter; off += req {
					if _, err := f.WriteAt(q, buf, int64(off)); err != nil {
						return err
					}
					most = max(most, fs.Pending())
				}
				return nil
			})
		}
		if err := g.Wait(p); err != nil {
			t.Fatal(err)
		}
		writing = false

		start := p.Now()
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if took, limit := time.Duration(p.Now().Sub(start)), imagePool*dev.writeDelay; took > limit {
			t.Errorf("the Sync after the last write took %v: more than %d segment writes (%v) were still to come", took, imagePool, limit)
		}
		if most > imagePool {
			t.Errorf("%d images held unwritten blocks at once, the pool is %d", most, imagePool)
		}
		st := fs.Stats()
		if segs := uint64(writers * perWriter / fs.SegmentBytes()); st.SegmentsWritten < segs || most < imagePool || st.ImageWaits == 0 || st.ImageWaitNs == 0 {
			t.Errorf("%d segments written, at most %d pending, %d waits: the writers never ran ahead of the device", st.SegmentsWritten, most, st.ImageWaits)
		}
		got, err := files[writers-1].ReadAt(p, perWriter-req, req)
		if err != nil || !bytes.Equal(got, buf) {
			t.Errorf("the last request does not read back (err %v)", err)
		}
	})
}

// TestFailedSealWakesWaitingWriter: more writers than the pool has images run
// into a device that takes nothing, so one parks waiting for an image with the
// rest behind it on the lock; then one segment write fails, or all of them.
// A failed seal gives its place back, the parked writer wakes to the latched
// error instead of an image, every writer after it sees the same error, and
// nobody is left parked when the engine drains.
func TestFailedSealWakesWaitingWriter(t *testing.T) {
	for _, all := range []bool{false, true} {
		t.Run(fmt.Sprintf("all=%v", all), func(t *testing.T) {
			e := sim.New()
			dev := &gateDev{MemDev: raid.NewMemDev(16<<20/512, 512)}
			var fs *FS
			errs := make([]error, imagePool+1)
			run(e, func(p *sim.Proc) {
				var err error
				if fs, err = Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3}); err != nil {
					t.Fatal(err)
				}
				files := make([]*File, len(errs))
				for i := range files {
					if files[i], err = fs.Create(p, fmt.Sprintf("/w%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := fs.Sync(p); err != nil {
					t.Fatal(err)
				}
				dev.open, dev.fail, dev.failOnce = sim.NewEvent(e), all, !all
				data := pinPattern(imagePool*fs.SegmentBytes(), 0x3c)
				for i, f := range files {
					e.Spawn("writer", func(q *sim.Proc) {
						_, errs[i] = f.WriteAt(q, data, 0)
					})
				}
				p.Wait(time.Second)
				if fs.imageSlots.QueueLen() != 1 || fs.Pending() != imagePool {
					t.Fatalf("gate shut: %d writers wait for an image with %d pending, want 1 and the whole pool (%d)", fs.imageSlots.QueueLen(), fs.Pending(), imagePool)
				}
				dev.open.Signal()
			})
			for i, err := range errs {
				if !errors.Is(err, errGate) {
					t.Errorf("writer %d returned %v, want the lost segment's error", i, err)
				}
			}
			if st := fs.Stats(); st.ImageWaits != 1 {
				t.Errorf("%d image waits, want the one writer that was parked", st.ImageWaits)
			}
			lost := 1
			if all {
				lost = imagePool
			}
			if fs.Pending() != lost || fs.imageSlots.Busy() != 0 {
				t.Errorf("%d pending and %d pool places taken once the writes ended, want the %d lost images and none", fs.Pending(), fs.imageSlots.Busy(), lost)
			}
			if live := e.Live(); live != 0 {
				t.Errorf("%d processes are still parked after the engine drained", live)
			}
			e.Shutdown()
			if live := e.Live(); live != 0 {
				t.Errorf("Live() = %d after Shutdown", live)
			}
		})
	}
}

// TestMetaCacheQueueStaysInStep: a block that dies leaves the eviction queue
// as well as the map, so the queue cannot outgrow the cache however many
// blocks pass through it, and an address cached again is as young as its
// latest insertion — not evicted in the turn of the one it had before.
func TestMetaCacheQueueStaysInStep(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		blk := make([]byte, BlockSize)
		base := fs.segAddr(1)
		for i := int64(0); i < 10*metaCacheCap; i++ {
			fs.cacheMeta(base+i, blk)
			if i%8 != 0 { // most die young: the map never fills, so the old queue was never popped
				fs.dropMeta(base + i)
			}
			if len(fs.metaOrder) > metaCacheCap || len(fs.metaCache) > metaCacheCap {
				t.Fatalf("after %d insertions the queue holds %d addresses and the map %d (cap %d)", i+1, len(fs.metaOrder), len(fs.metaCache), metaCacheCap)
			}
		}
		for addr, me := range fs.metaCache {
			if fs.metaOrder[me.pos] != addr {
				t.Fatalf("block %d thinks it is at place %d, which holds %d", addr, me.pos, fs.metaOrder[me.pos])
			}
		}

	})

	// Fill a cache, then let the oldest entry die and come back.
	e, fs = newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		if len(fs.metaCache) != 0 {
			t.Fatalf("a fresh file system has %d blocks cached: the script counts from an empty cache", len(fs.metaCache))
		}
		blk := make([]byte, BlockSize)
		base := fs.segAddr(1)
		for i := int64(0); i < metaCacheCap; i++ {
			fs.cacheMeta(base+i, blk)
		}
		fs.dropMeta(base)
		fs.cacheMeta(base, blk)
		fs.cacheMeta(base+metaCacheCap, blk) // evicts the oldest: no longer base
		if _, ok := fs.metaCache[base]; !ok {
			t.Error("a block cached a moment ago was evicted in its previous turn")
		}
		if _, ok := fs.metaCache[base+1]; ok || len(fs.metaCache) != metaCacheCap {
			t.Errorf("the oldest block survived a full cache's insertion (%d cached, cap %d)", len(fs.metaCache), metaCacheCap)
		}
	})
}

// TestDeadPointerBlockNeverCached: a file is removed while the segment that
// holds its indirect block is still on its way to the device.  When that
// write completes the dead block must not enter the metadata cache: nothing
// would ever drop it, and once the segment has been cleaned and reused, a
// different file's indirect block at the same address would be read from the
// dead one's bytes.
func TestDeadPointerBlockNeverCached(t *testing.T) {
	e := sim.New()
	dev := newSlowDev(2)
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		create := func(path string) *File {
			f, err := fs.Create(p, path)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		a, pad, c := create("/a"), create("/pad"), create("/c")
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}

		// /a fills the fresh segment exactly: twelve direct blocks, two more
		// and, before the last, the indirect block that points at them.
		sIdx := fs.segOf(fs.curSeg)
		if _, err := a.WriteAt(p, pinPattern((NDirect+2)*BlockSize, 0xa1), 0); err != nil {
			t.Fatal(err)
		}
		ind := fs.icache[a.inum].Ptrs[ptrInd]
		if len(fs.segEntries) != fs.segDataBlks || ind != fs.curSeg+NDirect+2 {
			t.Fatalf("/a left %d blocks in the segment and its indirect block at %d: the script no longer fills one segment", len(fs.segEntries), ind-fs.curSeg)
		}
		// The next block seals it; /a goes while the write is in flight.
		if _, err := pad.WriteAt(p, pinPattern(BlockSize, 0xd0), 0); err != nil {
			t.Fatal(err)
		}
		if fs.inflight[sIdx] == nil {
			t.Fatal("the segment with /a's indirect block is not in flight")
		}
		if err := fs.Remove(p, "/a"); err != nil {
			t.Fatal(err)
		}
		if fs.inflight[sIdx] == nil {
			t.Fatal("/a was not removed while its segment was in flight")
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if _, ok := fs.metaCache[ind]; ok {
			t.Error("the completed write cached a pointer block that died while it was staged")
		}

		// Clean, and go round the log until the segment is the current one
		// again, empty.
		if _, err := fs.Clean(p, int(fs.sb.NSegs)); err != nil && !errors.Is(err, ErrNoSpace) {
			t.Fatal(err)
		}
		if !fs.free.Has(sIdx) {
			t.Fatal("the cleaner left the dead segment in use")
		}
		for i := 0; fs.segOf(fs.curSeg) != sIdx; i++ {
			if i > 2*int(fs.sb.NSegs) {
				t.Fatal("the log never came back to the cleaned segment")
			}
			if _, err := pad.WriteAt(p, pinPattern(BlockSize, byte(i)), 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(p); err != nil {
				t.Fatal(err)
			}
		}

		// /c takes /a's place block for block — its indirect block lands at
		// /a's address — but its last two blocks sit further into the file,
		// so the two indirect blocks differ.
		want := pinPattern((NDirect+10)*BlockSize, 0xc7)
		clear(want[NDirect*BlockSize : (NDirect+8)*BlockSize]) // a hole
		if _, err := c.WriteAt(p, want[:NDirect*BlockSize], 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteAt(p, want[(NDirect+8)*BlockSize:], (NDirect+8)*BlockSize); err != nil {
			t.Fatal(err)
		}
		if got := fs.icache[c.inum].Ptrs[ptrInd]; got != ind {
			t.Fatalf("/c's indirect block is at %d, /a's was at %d: the script no longer reuses the address", got, ind)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadAt(p, 0, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("/c does not read back from the reused segment (err %v)", err)
		}
		if r, err := fs.Check(p); err != nil || !r.OK() {
			t.Errorf("check: %+v, err %v", r, err)
		}
	})
}
