package lfs

import (
	"testing"

	"raidii/internal/sim"
)

// TestGenerationMovesWithTheFile: a file's generation moves on a write, a
// truncate, a cleaner move of one of its blocks and its removal, and on
// nothing that leaves its bytes and block map alone: a sync, a read, another
// file's write.  A cleaner move changes no byte of the file, so no read can
// tell a missing move from a made one; only the generation can.
func TestGenerationMovesWithTheFile(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		a, err := fs.Create(p, "/a")
		if err != nil {
			t.Fatal(err)
		}
		other, err := fs.Create(p, "/other")
		if err != nil {
			t.Fatal(err)
		}
		step := func(what string, moves bool, fn func() error) {
			t.Helper()
			before := a.Generation()
			if err := fn(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if moved := a.Generation() != before; moved != moves {
				t.Errorf("%s: generation moved %v, want %v", what, moved, moves)
			}
		}
		step("write", true, func() error { _, err := a.WriteAt(p, pinPattern(4*BlockSize, 1), 0); return err })
		step("sync", false, func() error { return fs.Sync(p) })
		step("read", false, func() error { _, err := a.ReadAt(p, 0, 4*BlockSize); return err })
		step("another file's write", false, func() error { _, err := other.WriteAt(p, pinPattern(BlockSize, 2), 0); return err })
		step("cleaner move", true, func() error {
			fs.mu.Acquire(p)
			defer fs.mu.Release()
			addr, err := fileBlockAddr(p, fs, a, 0)
			if err != nil {
				return err
			}
			if err := fs.cleanSegment(p, fs.segOf(addr), false); err != nil {
				return err
			}
			if moved, err := fileBlockAddr(p, fs, a, 0); err != nil || moved == addr {
				t.Fatalf("block 0 at %d after the clean, %d before (%v)", moved, addr, err)
			}
			return nil
		})
		step("truncate", true, func() error { return a.Truncate(p) })
		step("remove", true, func() error { return fs.Remove(p, "/a") })
	})
}

// fileBlockAddr is the log address of file block fb of f.  Caller holds fs.mu.
func fileBlockAddr(p *sim.Proc, fs *FS, f *File, fb int64) (int64, error) {
	in, err := fs.loadInode(p, f.inum)
	if err != nil {
		return 0, err
	}
	return fs.getBlockAddr(p, in, fb)
}
