package lfs

import (
	"fmt"

	"raidii/internal/sim"
)

// CheckReport summarizes a consistency check.  Because LFS recovery state
// hangs off the checkpoint and inode map, checking is proportional to live
// metadata rather than to volume size — the paper: "For a 1 gigabyte file
// system, it takes a few seconds to perform an LFS file system check,
// compared with approximately 20 minutes ... for a typical UNIX file
// system of comparable size."
type CheckReport struct {
	Inodes         int
	Files          int
	Dirs           int
	LiveBlocks     int64
	Orphans        []uint32 // allocated inodes unreachable from the root
	BadPointers    []string
	UsageDriftSegs int // segments whose usage accounting drifted
}

// OK reports whether the check found no structural problems.
func (r *CheckReport) OK() bool {
	return len(r.Orphans) == 0 && len(r.BadPointers) == 0
}

// Check verifies file system invariants: every inode-map entry points at a
// valid inode, every block pointer lies inside the log, no block is
// referenced twice, and every allocated inode is reachable from the root.
func (fs *FS) Check(p *sim.Proc) (*CheckReport, error) {
	fs.mu.Acquire(p)
	defer fs.mu.Release()

	r := &CheckReport{}
	seen := make(map[int64]uint32) // block addr -> owner inum
	liveBySeg := make(map[int]int64)

	claim := func(inum uint32, addr int64, what string) {
		if addr == 0 {
			return
		}
		if fs.segOf(addr) < 0 || fs.segOf(addr) >= int(fs.sb.NSegs) {
			r.BadPointers = append(r.BadPointers, fmt.Sprintf("inode %d: %s at %d outside log", inum, what, addr))
			return
		}
		if owner, dup := seen[addr]; dup {
			r.BadPointers = append(r.BadPointers, fmt.Sprintf("block %d claimed by inodes %d and %d", addr, owner, inum))
			return
		}
		seen[addr] = inum
		liveBySeg[fs.segOf(addr)] += BlockSize
		r.LiveBlocks++
	}

	reachable := make(map[uint32]bool)
	var walkDir func(inum uint32) error
	walkDir = func(inum uint32) error {
		if reachable[inum] {
			return nil
		}
		reachable[inum] = true
		in, err := fs.loadInode(p, inum)
		if err != nil {
			return err
		}
		if in.Mode != ModeDir {
			return nil
		}
		ents, err := fs.readDirLocked(p, in)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if err := walkDir(e.Inum); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walkDir(RootInum); err != nil {
		return nil, err
	}

	for inum := uint32(1); inum < fs.sb.MaxInodes; inum++ {
		if fs.imap[inum] == 0 {
			continue
		}
		r.Inodes++
		in, err := fs.loadInode(p, inum)
		if err != nil {
			r.BadPointers = append(r.BadPointers, fmt.Sprintf("inode %d unreadable: %v", inum, err))
			continue
		}
		if in.Mode == ModeDir {
			r.Dirs++
		} else {
			r.Files++
		}
		if !reachable[inum] {
			r.Orphans = append(r.Orphans, inum)
		}
		claim(inum, fs.imap[inum], "inode block")
		for i, a := range in.Direct {
			claim(inum, a, fmt.Sprintf("direct[%d]", i))
		}
		if in.Ind != 0 {
			claim(inum, in.Ind, "indirect")
			buf, err := fs.readBlock(p, in.Ind)
			if err != nil {
				return nil, err
			}
			for i := 0; i < PtrsPerBlock; i++ {
				claim(inum, int64(le.Uint64(buf[i*8:])), fmt.Sprintf("ind[%d]", i))
			}
		}
		if in.DIndTop != 0 {
			claim(inum, in.DIndTop, "dind-top")
			top, err := fs.readBlock(p, in.DIndTop)
			if err != nil {
				return nil, err
			}
			for i := 0; i < PtrsPerBlock; i++ {
				l2 := int64(le.Uint64(top[i*8:]))
				if l2 == 0 {
					continue
				}
				claim(inum, l2, fmt.Sprintf("dind-l2[%d]", i))
				buf, err := fs.readBlock(p, l2)
				if err != nil {
					return nil, err
				}
				for j := 0; j < PtrsPerBlock; j++ {
					claim(inum, int64(le.Uint64(buf[j*8:])), fmt.Sprintf("dind[%d][%d]", i, j))
				}
			}
		}
	}

	// The free-segment count every append consults must match the map.
	scan := 0
	for _, f := range fs.free {
		if f {
			scan++
		}
	}
	if scan != fs.nFree {
		r.BadPointers = append(r.BadPointers, fmt.Sprintf("free-segment count is %d, the free map holds %d", fs.nFree, scan))
	}

	// Usage drift (informational): compare computed live bytes per segment
	// against the usage table, ignoring metadata chunks it also counts.
	for idx, live := range liveBySeg {
		diff := int64(fs.usageLive[idx]) - live
		if diff < 0 {
			diff = -diff
		}
		if diff > 8*BlockSize {
			r.UsageDriftSegs++
		}
	}
	return r, nil
}
