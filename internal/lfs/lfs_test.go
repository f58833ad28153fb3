package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"raidii/internal/raid"
	"raidii/internal/sim"
)

// newFS builds an LFS over a functional (zero-time) RAID-5 array of
// memory devices: correctness-focused tests need no hardware timing.
func newFS(t *testing.T, segKB int, devMB int) (*sim.Engine, *FS) {
	t.Helper()
	e := sim.New()
	devs := make([]raid.Dev, 5)
	for i := range devs {
		devs[i] = raid.NewMemDev(int64(devMB)<<20/512, 512)
	}
	arr, err := raid.New(e, devs, raid.Config{Level: raid.Level5, StripeUnitSectors: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fs *FS
	e.Spawn("mkfs", func(p *sim.Proc) {
		cfg := Config{SegBytes: segKB << 10, MaxInodes: 4096, CleanReserve: 3}
		fs, err = Format(p, e, arr, cfg)
	})
	e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, fs
}

// run executes fn in a simulated process and drains the engine.
func run(e *sim.Engine, fn func(*sim.Proc)) {
	e.Spawn("t", fn)
	e.Run()
}

func TestCreateWriteReadSmall(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	data := []byte("hello, log-structured world")
	var got []byte
	run(e, func(p *sim.Proc) {
		f, err := fs.Create(p, "/hello.txt")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, data, 0); err != nil {
			t.Fatal(err)
		}
		got, err = f.ReadAt(p, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestLargeFileSpansIndirects(t *testing.T) {
	e, fs := newFS(t, 64, 24)
	// Large enough to exercise direct, single-indirect and
	// double-indirect pointers: > (12+1024)*4KB ~ 4.2 MB.
	const size = 6 << 20
	data := make([]byte, size)
	_, _ = rand.New(rand.NewSource(3)).Read(data)
	var got []byte
	run(e, func(p *sim.Proc) {
		f, err := fs.Create(p, "/big")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, data, 0); err != nil {
			t.Fatal(err)
		}
		sz, _ := f.Size(p)
		if sz != size {
			t.Fatalf("size = %d", sz)
		}
		got, err = f.ReadAt(p, 0, size)
		if err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(got, data) {
		t.Fatal("large file round trip failed")
	}
}

func TestOverwriteMiddle(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	base := make([]byte, 64<<10)
	for i := range base {
		base[i] = 'a'
	}
	patch := []byte("PATCHED")
	run(e, func(p *sim.Proc) {
		f, _ := fs.Create(p, "/f")
		_, _ = f.WriteAt(p, base, 0)
		_ = fs.Sync(p)
		_, _ = f.WriteAt(p, patch, 1000)
		got, _ := f.ReadAt(p, 0, len(base))
		want := append([]byte{}, base...)
		copy(want[1000:], patch)
		if !bytes.Equal(got, want) {
			t.Fatal("overwrite failed")
		}
		if sz, _ := f.Size(p); sz != int64(len(base)) {
			t.Fatalf("overwrite changed size: %d", sz)
		}
	})
}

func TestSparseFileReadsZero(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		f, _ := fs.Create(p, "/sparse")
		_, _ = f.WriteAt(p, []byte("end"), 100<<10)
		got, _ := f.ReadAt(p, 50<<10, 16)
		for _, b := range got {
			if b != 0 {
				t.Fatal("hole not zero")
			}
		}
		got, _ = f.ReadAt(p, 100<<10, 3)
		if string(got) != "end" {
			t.Fatalf("got %q", got)
		}
	})
}

func TestDirectoryTree(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(fs.Mkdir(p, "/usr"))
		must(fs.Mkdir(p, "/usr/lib"))
		must(fs.Mkdir(p, "/tmp"))
		for i := 0; i < 10; i++ {
			_, err := fs.Create(p, fmt.Sprintf("/usr/lib/lib%d.so", i))
			must(err)
		}
		ents, err := fs.ReadDir(p, "/usr/lib")
		must(err)
		if len(ents) != 10 {
			t.Fatalf("got %d entries", len(ents))
		}
		if ents[0].Name != "lib0.so" || ents[0].Mode != ModeFile {
			t.Fatalf("first entry %+v", ents[0])
		}
		root, err := fs.ReadDir(p, "/")
		must(err)
		if len(root) != 2 {
			t.Fatalf("root has %d entries", len(root))
		}
		fi, err := fs.Stat(p, "/usr/lib")
		must(err)
		if !fi.IsDir() {
			t.Fatal("lib should be a dir")
		}
	})
}

func TestCreateErrors(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		if _, err := fs.Create(p, "/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Create(p, "/a"); err != ErrExist {
			t.Fatalf("dup create: %v", err)
		}
		if _, err := fs.Create(p, "/nodir/x"); err != ErrNotExist {
			t.Fatalf("missing parent: %v", err)
		}
		if _, err := fs.Open(p, "/missing"); err != ErrNotExist {
			t.Fatalf("open missing: %v", err)
		}
		if _, err := fs.Create(p, "/a/b"); err != ErrNotDir {
			t.Fatalf("file as dir: %v", err)
		}
		long := make([]byte, 300)
		for i := range long {
			long[i] = 'x'
		}
		if _, err := fs.Create(p, "/"+string(long)); err != ErrNameTooLong {
			t.Fatalf("long name: %v", err)
		}
	})
}

func TestRemove(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		f, _ := fs.Create(p, "/doomed")
		_, _ = f.WriteAt(p, make([]byte, 32<<10), 0)
		if err := fs.Remove(p, "/doomed"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/doomed"); err != ErrNotExist {
			t.Fatalf("open after remove: %v", err)
		}
		// Directory removal.
		_ = fs.Mkdir(p, "/d")
		_, _ = fs.Create(p, "/d/child")
		if err := fs.Remove(p, "/d"); err != ErrNotEmpty {
			t.Fatalf("non-empty dir: %v", err)
		}
		_ = fs.Remove(p, "/d/child")
		if err := fs.Remove(p, "/d"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRename(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		f, _ := fs.Create(p, "/old")
		_, _ = f.WriteAt(p, []byte("payload"), 0)
		_ = fs.Mkdir(p, "/sub")
		if err := fs.Rename(p, "/old", "/sub/new"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/old"); err != ErrNotExist {
			t.Fatal("old name should be gone")
		}
		g, err := fs.Open(p, "/sub/new")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := g.ReadAt(p, 0, 7)
		if string(got) != "payload" {
			t.Fatalf("got %q", got)
		}
		// Same-directory rename.
		if err := fs.Rename(p, "/sub/new", "/sub/newer"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/sub/newer"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRenameIntoOwnSubtreeRefused: a directory moved under itself would be
// cut off from the root with everything below it, so Rename refuses it and
// leaves both directories as they were; a name that merely starts with the
// directory's name, and a rename to itself, still go through.
func TestRenameIntoOwnSubtreeRefused(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		for _, d := range []string{"/a", "/a/b", "/x"} {
			if err := fs.Mkdir(p, d); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fs.Create(p, "/a/b/f"); err != nil {
			t.Fatal(err)
		}
		for _, c := range [][2]string{{"/a", "/a/b"}, {"/a", "/a/b/c"}, {"/a/b", "/a/b/c"}, {"/a/", "/a/./b/c"}} {
			if err := fs.Rename(p, c[0], c[1]); !errors.Is(err, ErrInvalid) {
				t.Errorf("Rename(%q, %q) = %v, want ErrInvalid", c[0], c[1], err)
			}
		}
		for _, c := range [][2]string{{"/a", "/a"}, {"/x", "/xy"}, {"/xy", "/a/xy"}} {
			if err := fs.Rename(p, c[0], c[1]); err != nil {
				t.Errorf("Rename(%q, %q): %v", c[0], c[1], err)
			}
		}
		for _, path := range []string{"/a", "/a/b", "/a/xy"} {
			if fi, err := fs.Stat(p, path); err != nil || !fi.IsDir() {
				t.Errorf("Stat(%q) = %+v, %v after the refused renames", path, fi, err)
			}
		}
		if _, err := fs.Open(p, "/a/b/f"); err != nil {
			t.Error(err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if r, err := fs.Check(p); err != nil || !r.OK() || r.Dirs != 4 || r.Files != 1 {
			t.Errorf("check: %+v, err %v", r, err)
		}
	})
}

func TestSyncDurability(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		f, _ := fs.Create(p, "/durable")
		_, _ = f.WriteAt(p, []byte("sync me"), 0)
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if n := fs.Pending(); n != 0 {
			t.Fatalf("%d segment images still staged after sync", n)
		}
	})
}

func TestCheckCleanFS(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			f, _ := fs.Create(p, fmt.Sprintf("/f%d", i))
			_, _ = f.WriteAt(p, make([]byte, 10<<10), 0)
		}
		_ = fs.Checkpoint(p)
		r, err := fs.Check(p)
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK() {
			t.Fatalf("check failed: %+v", r)
		}
		if r.Files != 20 || r.Dirs != 1 {
			t.Fatalf("files=%d dirs=%d", r.Files, r.Dirs)
		}
	})
}

// TestCheckCountsInodesNotYetFlushed: a file created and written since the
// last flush is in the inode cache only, not in the inode map; Check counts
// it and claims its blocks all the same, so a Sync, which only adds the
// file's inode block, changes its report by exactly that block.
func TestCheckCountsInodesNotYetFlushed(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		f, err := fs.Create(p, "/new")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, make([]byte, 3*BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		before, err := fs.Check(p)
		if err != nil || !before.OK() {
			t.Fatalf("check before the flush: %+v, err %v", before, err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		after, err := fs.Check(p)
		if err != nil || !after.OK() {
			t.Fatalf("check after the flush: %+v, err %v", after, err)
		}
		if before.Inodes != 2 || before.Files != 1 || before.LiveBlocks != after.LiveBlocks-1 {
			t.Errorf("before the flush: %d inodes, %d files, %d live blocks; after: %d, %d, %d",
				before.Inodes, before.Files, before.LiveBlocks, after.Inodes, after.Files, after.LiveBlocks)
		}
	})
}

func TestStatsAccumulate(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		f, _ := fs.Create(p, "/s")
		_, _ = f.WriteAt(p, make([]byte, 256<<10), 0)
		_, _ = f.ReadAt(p, 0, 256<<10)
		_ = fs.Sync(p)
	})
	st := fs.Stats()
	if st.WriteOps != 1 || st.ReadOps != 1 {
		t.Fatalf("ops: %+v", st)
	}
	if st.BytesWritten != 256<<10 || st.BytesRead != 256<<10 {
		t.Fatalf("bytes: %+v", st)
	}
	if st.SegmentsWritten == 0 || st.BlocksAppended == 0 {
		t.Fatalf("log: %+v", st)
	}
}

func TestSegmentWritesAreFullStripes(t *testing.T) {
	// With segment size == stripe size, sealed segments should reach the
	// array as full-stripe writes (no read-modify-write penalty).
	e := sim.New()
	devs := make([]raid.Dev, 5)
	for i := range devs {
		devs[i] = raid.NewMemDev(64<<20/512, 512)
	}
	// 4 data disks x 16-sector (8 KB) units = 32 KB stripe.
	arr, _ := raid.New(e, devs, raid.Config{Level: raid.Level5, StripeUnitSectors: 16}, nil)
	var fs *FS
	run(e, func(p *sim.Proc) {
		var err error
		fs, err = Format(p, e, arr, Config{SegBytes: 32 << 10, MaxInodes: 1024, CleanReserve: 2})
		if err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Create(p, "/stream")
		_, _ = f.WriteAt(p, make([]byte, 1<<20), 0)
		_ = fs.Sync(p)
	})
	st := arr.Stats()
	if st.FullStripeWrites == 0 {
		t.Fatal("no full-stripe writes")
	}
	// Small writes happen only for the superblock/checkpoint regions.
	if st.SmallWrites > st.FullStripeWrites {
		t.Fatalf("small writes dominate: %+v", st)
	}
}

func TestManyFilesAndDeepPaths(t *testing.T) {
	e, fs := newFS(t, 64, 16)
	run(e, func(p *sim.Proc) {
		path := ""
		for d := 0; d < 8; d++ {
			path = fmt.Sprintf("%s/d%d", path, d)
			if err := fs.Mkdir(p, path); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			f, err := fs.Create(p, fmt.Sprintf("%s/file%03d", path, i))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = f.WriteAt(p, []byte(fmt.Sprintf("content-%d", i)), 0)
		}
		ents, _ := fs.ReadDir(p, path)
		if len(ents) != 100 {
			t.Fatalf("%d entries", len(ents))
		}
		g, _ := fs.Open(p, path+"/file042")
		got, _ := g.ReadAt(p, 0, 32)
		if string(got) != "content-42" {
			t.Fatalf("got %q", got)
		}
	})
}

func TestReuseInodeNumbers(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		f1, _ := fs.Create(p, "/a")
		first := f1.Inum()
		_ = fs.Remove(p, "/a")
		f2, _ := fs.Create(p, "/b")
		if f2.Inum() != first {
			t.Fatalf("inode %d not reused (got %d)", first, f2.Inum())
		}
	})
}

func TestQuickRandomIO(t *testing.T) {
	e, fs := newFS(t, 64, 16)
	const fileSize = 1 << 20
	shadow := make([]byte, fileSize)
	rng := rand.New(rand.NewSource(17))
	run(e, func(p *sim.Proc) {
		f, err := fs.Create(p, "/rand")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = f.WriteAt(p, make([]byte, fileSize), 0)
		for i := 0; i < 150; i++ {
			off := rng.Int63n(fileSize - 20000)
			n := 1 + rng.Intn(20000)
			buf := make([]byte, n)
			_, _ = rng.Read(buf)
			if _, err := f.WriteAt(p, buf, off); err != nil {
				t.Fatal(err)
			}
			copy(shadow[off:], buf)
			if i%25 == 0 {
				_ = fs.Sync(p)
			}
			roff := rng.Int63n(fileSize - 4096)
			got, err := f.ReadAt(p, roff, 4096)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, shadow[roff:roff+4096]) {
				t.Fatalf("iteration %d: mismatch at %d", i, roff)
			}
		}
		got, _ := f.ReadAt(p, 0, fileSize)
		if !bytes.Equal(got, shadow) {
			t.Fatal("final content mismatch")
		}
	})
}
