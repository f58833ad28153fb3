package lfs

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"raidii/internal/sim"
)

// lookupByParse is the oracle findDirEntry replaced: decode every entry, then
// search them in order, adding up the encoded lengths of the ones passed.
func lookupByParse(data []byte, name string) (inum uint32, off int, ok bool) {
	for _, e := range parseDir(data) {
		if e.Name == name {
			return e.Inum, off, true
		}
		off += 6 + len(e.Name)
	}
	return 0, off, false
}

type dirHit struct {
	inum uint32
	off  int
	ok   bool
}

func hit(inum uint32, off int, ok bool) dirHit { return dirHit{inum, off, ok} }

func TestFindDirEntryMatchesParseDir(t *testing.T) {
	long := strings.Repeat("n", MaxNameLen)
	// A directory whose records straddle the 4 KB block boundary: 200 names
	// of 20 bytes at 26 bytes a record put record 157 across offset 4096.
	var wide []DirEntry
	for i := 0; i < 200; i++ {
		wide = append(wide, DirEntry{Name: fmt.Sprintf("file-%015d", i), Inum: uint32(i + 2)})
	}
	if off := 157 * 26; off >= BlockSize || off+26 <= BlockSize {
		t.Fatalf("record 157 at [%d,%d) no longer straddles the block boundary", off, off+26)
	}
	full := marshalDir([]DirEntry{{Name: "alpha", Inum: 7}, {Name: "beta", Inum: 8}})
	cases := []struct {
		what  string
		data  []byte
		names []string
	}{
		{"empty directory", nil, []string{"", "a"}},
		{"end marker mid-buffer", append(append(marshalDir([]DirEntry{{Name: "kept", Inum: 3}}), make([]byte, 6)...),
			marshalDir([]DirEntry{{Name: "after-marker", Inum: 4}})...), []string{"kept", "after-marker", ""}},
		{"truncated last record", full[:len(full)-2], []string{"alpha", "beta", "be"}},
		{"truncated header", full[:len(full)-len("beta")-3], []string{"alpha", "beta"}},
		{"prefix of another name", marshalDir([]DirEntry{{Name: "logfile", Inum: 5}, {Name: "log", Inum: 6}, {Name: "lo", Inum: 0}}),
			[]string{"log", "logfile", "lo", "l", "logfiles"}},
		{"255-byte name", marshalDir([]DirEntry{{Name: long[:254], Inum: 9}, {Name: long, Inum: 10}}),
			[]string{long, long[:254], long[:253]}},
		{"record across a block boundary", marshalDir(wide), []string{wide[156].Name, wide[157].Name, wide[158].Name, wide[199].Name, "file-"}},
		{"duplicate name: first record wins", marshalDir([]DirEntry{{Name: "dup", Inum: 11}, {Name: "dup", Inum: 12}}), []string{"dup"}},
	}
	for _, c := range cases {
		for _, name := range c.names {
			if got, want := hit(findDirEntry(c.data, name)), hit(lookupByParse(c.data, name)); got != want {
				t.Errorf("%s: findDirEntry(%q) = %+v, parseDir + search = %+v", c.what, name, got, want)
			}
		}
	}
}

func FuzzFindDirEntry(f *testing.F) {
	f.Add(marshalDir([]DirEntry{{Name: "a", Inum: 1}, {Name: "ab", Inum: 2}}), "ab")
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 'x'}, "x")
	f.Add([]byte{1, 0, 0, 0, 9, 0, 'x'}, "x")
	f.Fuzz(func(t *testing.T, data []byte, name string) {
		if got, want := hit(findDirEntry(data, name)), hit(lookupByParse(data, name)); got != want {
			t.Fatalf("findDirEntry(%x, %q) = %+v, parseDir + search = %+v", data, name, got, want)
		}
	})
}

// TestOpenWarmDirectoryAllocs pins what a path lookup costs once the
// directory's blocks are cached: the File handle, splitPath's two slices and
// nothing per directory entry.  Decoding the 300 entries used to cost one
// allocation each plus the directory's size in bytes.
func TestOpenWarmDirectoryAllocs(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	const files = 300
	run(e, func(p *sim.Proc) {
		for i := 0; i < files; i++ {
			if _, err := fs.Create(p, fmt.Sprintf("/f%04d", i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	run(e, func(p *sim.Proc) {
		open := func() {
			if _, err := fs.Open(p, "/f0299"); err != nil {
				t.Fatal(err)
			}
		}
		open() // warm: metadata cache and scratch buffer
		if got := testing.AllocsPerRun(100, open); got != 3 {
			t.Errorf("warm Open of a %d-entry directory allocates %.0f objects, want 3", files, got)
		}
	})
	e.Shutdown()
}

// withRoom copies encoded directory contents into a buffer with room for one
// more record behind them, as dirBytes hands them out.
func withRoom(data []byte) []byte {
	return append(make([]byte, 0, len(data)+dirRecordMax), data...)
}

// without returns ents with element i removed, as the directory operations
// did it when they edited decoded entries.
func without(ents []DirEntry, i int) []DirEntry {
	return append(append([]DirEntry(nil), ents[:i]...), ents[i+1:]...)
}

// checkDirEdits compares the byte-level edits of the record for name —
// insert it if it is absent; remove it and rename it to newName if it is
// present — with decode, edit the entries, encode.
func checkDirEdits(t *testing.T, data []byte, name, newName string, inum uint32) {
	t.Helper()
	ents := parseDir(data)
	found, off, ok := findDirEntry(data, name)
	if !ok {
		buf := withRoom(data)
		got, want := dirAppend(buf, off, name, inum), marshalDir(append(ents, DirEntry{Name: name, Inum: inum}))
		if !bytes.Equal(got, want) || &got[0] != &buf[:1][0] {
			t.Fatalf("insert %q into %x:\n got %x\nwant %x (in the same buffer)", name, data, got, want)
		}
		return
	}
	idx := 0
	for ents[idx].Name != name {
		idx++
	}
	if got, want := dirCut(withRoom(data), off), marshalDir(without(ents, idx)); !bytes.Equal(got, want) {
		t.Fatalf("remove %q from %x:\n got %x\nwant %x", name, data, got, want)
	}
	buf := withRoom(data)
	got := dirAppend(dirCut(buf, off), off, newName, found)
	want := marshalDir(append(without(ents, idx), DirEntry{Name: newName, Inum: found}))
	if !bytes.Equal(got, want) || &got[0] != &buf[:1][0] {
		t.Fatalf("rename %q to %q in %x:\n got %x\nwant %x (in the same buffer)", name, newName, data, got, want)
	}
}

func TestDirEditsMatchParseEditMarshal(t *testing.T) {
	full := marshalDir([]DirEntry{{Name: "alpha", Inum: 7}, {Name: "beta", Inum: 8}, {Name: "gamma", Inum: 9}})
	marker := append(append(bytes.Clone(full), make([]byte, 6)...), marshalDir([]DirEntry{{Name: "after-marker", Inum: 4}})...)
	long := strings.Repeat("n", MaxNameLen)
	for _, data := range [][]byte{nil, full, full[:len(full)-2], full[:len(full)-len("gamma")-3], marker,
		marshalDir([]DirEntry{{Name: "dup", Inum: 11}, {Name: "x", Inum: 1}, {Name: "dup", Inum: 12}})} {
		for _, name := range []string{"alpha", "beta", "gamma", "after-marker", "dup", "x", "new", long} {
			checkDirEdits(t, data, name, "renamed", 42)
			checkDirEdits(t, data, name, long, 42)
			checkDirEdits(t, data, name, name, 42)
		}
	}
}

func FuzzDirEdit(f *testing.F) {
	full := marshalDir([]DirEntry{{Name: "a", Inum: 1}, {Name: "ab", Inum: 2}, {Name: "abc", Inum: 3}})
	f.Add(full, "ab", "b", uint32(9))
	f.Add(full, "zz", "", uint32(9))
	f.Add(full[:len(full)-1], "abc", "c", uint32(9))                                        // truncated last record
	f.Add(append(append([]byte{}, full[:7]...), make([]byte, 12)...), "ab", "a", uint32(9)) // early end marker
	f.Add([]byte{1, 0, 0, 0, 9, 0, 'x'}, "x", "y", uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, name, newName string, inum uint32) {
		if len(name) > MaxNameLen || len(newName) > MaxNameLen {
			t.Skip("nameiParent refuses the name before any directory is read")
		}
		checkDirEdits(t, data, name, newName, inum)
	})
}

// TestCreateRemoveAllocsIndependentOfDirectorySize: Create and Remove edit
// the directory's encoded bytes in the file system's scratch buffer, so what
// a pair allocates — the path's pieces, the inode, the handle, its share of
// the segment images its two directory blocks fill — is the same in a
// directory of 300 entries as in one of 30.  Decoding and re-encoding the
// entries cost a string apiece and the directory's size twice over, 50 KB a
// pair at 300 entries.
func TestCreateRemoveAllocsIndependentOfDirectorySize(t *testing.T) {
	perPair := func(files int) uint64 {
		e, fs := newFS(t, 64, 8)
		var before, after runtime.MemStats
		run(e, func(p *sim.Proc) {
			for i := 0; i < files; i++ {
				if _, err := fs.Create(p, fmt.Sprintf("/f%04d", i)); err != nil {
					t.Fatal(err)
				}
			}
			pair := func() {
				if _, err := fs.Create(p, "/churn"); err != nil {
					t.Fatal(err)
				}
				if err := fs.Remove(p, "/churn"); err != nil {
					t.Fatal(err)
				}
			}
			pair() // warm: scratch buffers at their size
			runtime.ReadMemStats(&before)
			for i := 0; i < 50; i++ {
				pair()
			}
			runtime.ReadMemStats(&after)
		})
		e.Shutdown()
		return (after.TotalAlloc - before.TotalAlloc) / 50
	}
	small, large := perPair(30), perPair(300)
	if large > small+512 {
		t.Errorf("Create+Remove allocates %d bytes in a 300-entry directory and %d in a 30-entry one: want the same", large, small)
	}
}
