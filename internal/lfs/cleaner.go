package lfs

import (
	"raidii/internal/sim"
)

// The segment cleaner reclaims the space dead blocks leave behind in old
// segments.  The 1994 prototype shipped without one ("LFS cleaning ...
// has not yet been implemented"); this implementation follows the Sprite
// design the paper builds on: pick segments by cost-benefit, copy the
// still-live blocks to the head of the log, and mark the segment free.

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
// let the cleaner churn forever without progress.
func (fs *FS) pickCleanCandidate() int {
	best, bestScore := -1, 0.0
	segBytes := int32(fs.segDataBlks) * BlockSize
	for idx := 0; idx < int(fs.sb.NSegs); idx++ {
		if fs.free[idx] || fs.segAddr(idx) == fs.curSeg || fs.inflight[idx] != nil {
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
	case kindData:
		in, err := fs.loadInode(p, e.Arg1)
		if err == ErrNotExist {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		cur, err := fs.getBlockAddr(p, in, int64(e.Arg2))
		return cur == addr, err
	case kindInode:
		return int(e.Arg1) < len(fs.imap) && fs.imap[e.Arg1] == addr, nil
	case kindImap:
		return int(e.Arg1) < len(fs.imapAddrs) && fs.imapAddrs[e.Arg1] == addr, nil
	case kindSegUsage:
		return int(e.Arg1) < len(fs.usageAddrs) && fs.usageAddrs[e.Arg1] == addr, nil
	case kindIndirect:
		in, err := fs.loadInode(p, e.Arg1)
		if err == ErrNotExist {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		return in.Ind == addr, nil
	case kindDIndTop:
		in, err := fs.loadInode(p, e.Arg1)
		if err == ErrNotExist {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		return in.DIndTop == addr, nil
	case kindDIndL2:
		in, err := fs.loadInode(p, e.Arg1)
		if err == ErrNotExist {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if in.DIndTop == 0 {
			return false, nil
		}
		top, err := fs.readBlock(p, in.DIndTop)
		if err != nil {
			return false, err
		}
		return int64(le.Uint64(top[int(e.Arg2)*8:])) == addr, nil
	}
	return false, nil
}

// moveBlock copies a live block to the head of the log and repoints its
// referent.
func (fs *FS) moveBlock(p *sim.Proc, e summaryEntry, addr int64) error {
	switch e.Kind {
	case kindInode:
		in, err := fs.loadInode(p, e.Arg1)
		if err != nil {
			return err
		}
		return fs.appendInode(p, in)
	case kindImap:
		return fs.stageImapChunk(p, int(e.Arg1))
	case kindSegUsage:
		return fs.stageUsageChunk(p, int(e.Arg1))
	case kindData, kindIndirect, kindDIndTop, kindDIndL2:
	default:
		return nil
	}
	// A block of a file: the same bytes under the same description, then
	// the one pointer to it.
	in, err := fs.loadInode(p, e.Arg1)
	if err != nil {
		return err
	}
	content, err := fs.readBlock(p, addr)
	if err != nil {
		return err
	}
	newAddr, b, err := fs.appendSlot(p, e.Kind, e.Arg1, e.Arg2)
	if err != nil {
		return err
	}
	copy(b, content)
	fs.killBlock(addr)
	switch e.Kind {
	case kindData:
		return fs.setBlockAddr(p, in, int64(e.Arg2), newAddr)
	case kindIndirect:
		in.Ind = newAddr
	case kindDIndTop:
		in.DIndTop = newAddr
	case kindDIndL2:
		newTop, err := fs.rewriteMeta(p, in.DIndTop, kindDIndTop, e.Arg1, 0, func(b []byte) {
			le.PutUint64(b[int(e.Arg2)*8:], uint64(newAddr))
		})
		if err != nil || newTop == in.DIndTop {
			return err
		}
		in.DIndTop = newTop
	}
	fs.dirtyInode(in)
	return nil
}

// cleanSegment reclaims one sealed segment.  Caller holds fs.mu.
func (fs *FS) cleanSegment(p *sim.Proc, idx int) error {
	end := p.Span("lfs", "clean-segment")
	defer end()
	segAddr := fs.segAddr(idx)
	raw, err := fs.dev.Read(p, segAddr*int64(fs.blockSectors), fs.blockSectors)
	if err != nil {
		return err
	}
	var sum summary
	if err := sum.unmarshal(raw); err != nil {
		// Unreadable summary on a non-free segment: treat as empty.
		fs.setFree(idx, true)
		fs.usageLive[idx] = 0
		fs.markUsageDirty(idx)
		return nil
	}
	for i, e := range sum.Entries {
		addr := segAddr + 1 + int64(i)
		live, err := fs.blockLive(p, e, addr)
		if err != nil {
			return err
		}
		if !live {
			continue
		}
		if err := fs.moveBlock(p, e, addr); err != nil {
			return err
		}
		fs.stats.BlocksMoved++
	}
	fs.setFree(idx, true)
	fs.usageLive[idx] = 0
	fs.markUsageDirty(idx)
	fs.stats.SegmentsCleaned++
	return nil
}

// cleanSome cleans candidates until at least target segments are free (or
// no candidate remains).  Caller holds fs.mu.
func (fs *FS) cleanSome(p *sim.Proc, target int) error {
	if fs.cleaning {
		return nil
	}
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	// Progress guard: cleaning must raise the free count within a bounded
	// number of passes, or the remaining space simply does not exist (all
	// candidates nearly full) and we stop rather than churn.
	stall := 0
	for fs.FreeSegments() < target {
		before := fs.FreeSegments()
		idx := fs.pickCleanCandidate()
		if idx < 0 {
			return ErrNoSpace
		}
		if err := fs.cleanSegment(p, idx); err != nil {
			return err
		}
		if fs.FreeSegments() <= before {
			stall++
			if stall > int(fs.sb.NSegs) {
				return ErrNoSpace
			}
		} else {
			stall = 0
		}
	}
	return nil
}

// Clean runs the segment cleaner until free segments reach target; it
// returns the number of segments reclaimed.
func (fs *FS) Clean(p *sim.Proc, target int) (int, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()
	before := fs.stats.SegmentsCleaned
	err := fs.cleanSome(p, target)
	return int(fs.stats.SegmentsCleaned - before), err
}
