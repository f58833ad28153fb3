package lfs

import (
	"raidii/internal/sim"
)

// The segment cleaner reclaims the space dead blocks leave behind in old
// segments.  The 1994 prototype shipped without one ("LFS cleaning ...
// has not yet been implemented"); this implementation follows the Sprite
// design the paper builds on: pick segments by cost-benefit, copy the
// still-live blocks to the head of the log, and mark the segment free.
//
// As in Sprite the cleaner is a process of its own.  A seal that leaves
// fewer than CleanReserve segments free starts it, and it reads each victim
// with fs.mu given back: only a cleaner frees a segment, so the bytes of a
// sealed segment it has picked cannot change under it.  An append cleans
// inline, holding the lock throughout, only when the process has fallen so
// far behind that the log is down to its last free segment (makeRoom);
// Clean does the same on request.

// cleanScore rates a candidate: benefit/cost = (1-u)*age / (1+u), where u
// is the live fraction and age is the time (in log sequence numbers) since
// the segment was written.  Cold, mostly-dead segments win.
func (fs *FS) cleanScore(idx int) float64 {
	segBytes := float64(fs.segDataBlks * BlockSize)
	u := float64(fs.usageLive[idx]) / segBytes
	if u > 1 {
		u = 1
	}
	age := float64(fs.segSeq - fs.usageSeq[idx])
	if age < 1 {
		age = 1
	}
	return (1 - u) * age / (1 + u)
}

// pickCleanCandidate chooses the best segment to clean, or -1.  Segments
// with nothing dead in them are never candidates: copying a fully live
// segment frees no space (it just moves the data), so selecting one would
// let the cleaner churn forever without progress.  Nor is the cleaner
// process's victim.
func (fs *FS) pickCleanCandidate() int {
	best, bestScore := -1, 0.0
	segBytes := int32(fs.segDataBlks) * BlockSize
	for idx := 0; idx < int(fs.sb.NSegs); idx++ {
		if fs.free.Has(idx) || fs.segAddr(idx) == fs.curSeg || fs.inflight[idx] != nil || idx == fs.victim {
			continue
		}
		if fs.usageLive[idx] >= segBytes {
			continue // nothing reclaimable
		}
		if s := fs.cleanScore(idx); s > bestScore {
			best, bestScore = idx, s
		}
	}
	return best
}

// blockLive checks whether the block at addr, described by a summary
// entry, is still referenced by the file system.
func (fs *FS) blockLive(p *sim.Proc, e summaryEntry, addr int64) (bool, error) {
	switch e.Kind {
	case kindInode:
		return int(e.Arg1) < len(fs.imap) && fs.imap[e.Arg1] == addr, nil
	case kindImap:
		return int(e.Arg1) < len(fs.imapAddrs) && fs.imapAddrs[e.Arg1] == addr, nil
	case kindSegUsage:
		return int(e.Arg1) < len(fs.usageAddrs) && fs.usageAddrs[e.Arg1] == addr, nil
	}
	// A block of a file: live while its pointer names it.
	in, err := fs.loadInode(p, e.Arg1)
	if err == ErrNotExist {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	cur, err := fs.addrOf(p, in, e)
	return cur == addr, err
}

// moveBlock copies a live block, whose bytes are content, to the head of the
// log and repoints its referent.
func (fs *FS) moveBlock(p *sim.Proc, e summaryEntry, addr int64, content []byte) error {
	switch e.Kind {
	case kindInode:
		in, ok := fs.icache[e.Arg1]
		if !ok {
			var err error
			if in, err = fs.inodeFrom(e.Arg1, content); err != nil {
				return err
			}
		}
		return fs.appendInode(p, in)
	case kindImap:
		return fs.stageImapChunk(p, int(e.Arg1))
	case kindSegUsage:
		return fs.stageUsageChunk(p, int(e.Arg1))
	}
	// A block of a file: the same bytes under the same description, then
	// the one pointer to it.
	in, err := fs.loadInode(p, e.Arg1)
	if err != nil {
		return err
	}
	newAddr, b, err := fs.appendSlot(p, e.Kind, e.Arg1, e.Arg2)
	if err != nil {
		return err
	}
	copy(b, content)
	fs.killBlock(addr)
	err = fs.repoint(p, in, e, newAddr)
	fs.touch(e.Arg1)
	return err
}

// cleanSegment reclaims sealed segment idx.  Caller holds fs.mu.  It reads
// the summary, then every block live at that moment, all at once; then it
// moves from that copy each block still live — one that died meanwhile stays
// dead — and frees the segment.  With unlock, the caller is the cleaner
// process: the reads run with fs.mu given back and idx its victim, and it
// stops with ErrCrashed if the file system crashed meanwhile.
func (fs *FS) cleanSegment(p *sim.Proc, idx int, unlock bool) error {
	defer p.Span("lfs", "clean-segment")()
	if unlock {
		fs.victim = idx
		defer func() { fs.victim = -1 }()
	}
	segAddr := fs.segAddr(idx)
	sumAddrs := make([]int64, fs.sumBlks)
	for i := range sumAddrs {
		sumAddrs[i] = segAddr + int64(i)
	}
	raw := make([]byte, fs.sumBlks*BlockSize)
	if err := fs.cleanFetch(p, unlock, sumAddrs, raw); err != nil {
		return err
	}
	var sum summary
	if err := sum.unmarshal(raw); err != nil {
		// Unreadable summary on a non-free segment: treat as empty.
		fs.freeSegment(idx)
		return nil
	}
	var live []int64
	for i, e := range sum.Entries {
		addr := fs.entryAddr(segAddr, i)
		ok, err := fs.blockLive(p, e, addr)
		if err != nil {
			return err
		}
		if ok {
			live = append(live, addr)
		}
	}
	content := make([]byte, len(live)*BlockSize)
	if err := fs.cleanFetch(p, unlock, live, content); err != nil {
		return err
	}
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	for k, addr := range live {
		e := sum.Entries[addr-fs.entryAddr(segAddr, 0)]
		ok, err := fs.blockLive(p, e, addr)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := fs.moveBlock(p, e, addr, slot(content, int64(k))); err != nil {
			return err
		}
		fs.stats.BlocksMoved++
	}
	fs.freeSegment(idx)
	fs.stats.SegmentsCleaned++
	return nil
}

// cleanFetch is cleanSegment's read of the blocks at addrs into dst (fetch).
// With unlock it gives fs.mu back for the reads and reports, once it has
// the lock again, what keeps the file system from writing.
func (fs *FS) cleanFetch(p *sim.Proc, unlock bool, addrs []int64, dst []byte) error {
	if !unlock {
		return fs.fetch(p, addrs, dst)
	}
	fs.mu.Release()
	end := p.Span("lfs", "clean-fetch")
	err := fs.fetch(p, addrs, dst)
	end()
	fs.mu.Acquire(p)
	if err != nil {
		return err
	}
	return fs.failed()
}

// freeSegment returns a cleaned segment to the free map.
func (fs *FS) freeSegment(idx int) {
	fs.free.Add(idx)
	fs.usageLive[idx] = 0
	fs.markUsageDirty(idx)
}

// cleanSome cleans candidates until at least target segments are free (or
// no candidate remains).  Caller holds fs.mu; unlock is cleanSegment's.
func (fs *FS) cleanSome(p *sim.Proc, target int, unlock bool) error {
	// Progress guard: cleaning must raise the free count to a new high within
	// a bounded number of passes, or the remaining space simply does not
	// exist (all candidates nearly full: each victim's moves fill about the
	// segment it frees, and leave a dead pointer block behind in it) and we
	// stop rather than churn.
	best, stall := fs.FreeSegments(), 0
	for fs.FreeSegments() < target {
		idx := fs.pickCleanCandidate()
		if idx < 0 {
			return ErrNoSpace
		}
		if err := fs.cleanSegment(p, idx, unlock); err != nil {
			return err
		}
		if fs.FreeSegments() > best {
			best, stall = fs.FreeSegments(), 0
		} else if stall++; stall > int(fs.sb.NSegs) {
			return ErrNoSpace
		}
	}
	return nil
}

// startCleaner starts the cleaner process when the free segments have
// fallen below the reserve and it is not running already.  Every seal asks.
func (fs *FS) startCleaner() {
	if fs.cleanerOn || fs.crashed || fs.FreeSegments() >= fs.cfg.CleanReserve {
		return
	}
	fs.cleanerOn = true
	fs.eng.Spawn("lfs-cleaner", func(p *sim.Proc) {
		fs.mu.Acquire(p)
		defer fs.mu.Release()
		defer func() { fs.cleanerOn = false }()
		if fs.failed() == nil {
			_ = fs.cleanSome(p, fs.cfg.CleanReserve, true) //lint:allow errdrop background clean: no candidate, a crash or a device loss ends it, and the appends report what matters
		}
	})
}

// Clean runs the segment cleaner until free segments reach target; it
// returns the number of segments reclaimed.  It cleans inline, holding
// fs.mu throughout.
func (fs *FS) Clean(p *sim.Proc, target int) (int, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	before := fs.stats.SegmentsCleaned
	err := fs.cleanSome(p, target, false)
	return int(fs.stats.SegmentsCleaned - before), err
}
