package lfs

import (
	"fmt"
	"strings"
	"testing"

	"raidii/internal/sim"
)

// lookupByParse is the oracle findDirEntry replaced: decode every entry, then
// search them in order.
func lookupByParse(data []byte, name string) uint32 {
	for _, e := range parseDir(data) {
		if e.Name == name {
			return e.Inum
		}
	}
	return 0
}

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
			if got, want := findDirEntry(c.data, name), lookupByParse(c.data, name); got != want {
				t.Errorf("%s: findDirEntry(%q) = %d, parseDir + search = %d", c.what, name, got, want)
			}
		}
	}
}

func FuzzFindDirEntry(f *testing.F) {
	f.Add(marshalDir([]DirEntry{{Name: "a", Inum: 1}, {Name: "ab", Inum: 2}}), "ab")
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 'x'}, "x")
	f.Add([]byte{1, 0, 0, 0, 9, 0, 'x'}, "x")
	f.Fuzz(func(t *testing.T, data []byte, name string) {
		if got, want := findDirEntry(data, name), lookupByParse(data, name); got != want {
			t.Fatalf("findDirEntry(%x, %q) = %d, parseDir + search = %d", data, name, got, want)
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
