package lfs

import (
	"bytes"
	"testing"

	"raidii/internal/sim"
)

// TestReadAtIntoMatchesReadAt: the destination-passing read fills a dirty
// buffer with what ReadAt returns — for staged blocks, for blocks on the
// device, for ranges that start and end inside blocks, across a hole, and
// short at end of file.
func TestReadAtIntoMatchesReadAt(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 40*BlockSize+123)
		for i := range body {
			body[i] = byte(i / 7)
		}
		if _, err := f.WriteAt(p, body, 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		// Leave a hole, then a staged tail.
		tailOff := int64(len(body)) + 3*BlockSize
		if _, err := f.WriteAt(p, []byte("staged tail"), tailOff); err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			off int64
			n   int
		}{{0, 8 * BlockSize}, {100, 3*BlockSize + 17}, {5 * BlockSize, BlockSize}, {39 * BlockSize, 6 * BlockSize}, {tailOff - 10, 500}, {tailOff + 100, 64}} {
			want, err := f.ReadAt(p, r.off, r.n)
			if err != nil {
				t.Fatal(err)
			}
			dst := bytes.Repeat([]byte{0xee}, r.n)
			got, err := f.ReadAtInto(p, r.off, dst)
			if err != nil || got != len(want) || !bytes.Equal(dst[:got], want) {
				t.Fatalf("ReadAtInto(%d,+%d) = %d bytes, err %v; ReadAt gave %d bytes; contents equal: %v",
					r.off, r.n, got, err, len(want), bytes.Equal(dst[:got], want))
			}
		}
	})
}

// TestReadDestinationNeverAliasesPending: what a read handed back is the
// caller's.  Scribbling on it never changes a staged block, a cached
// metadata block or the device, so the next read — and the bytes that
// reach the log at Sync — are unaffected.
func TestReadDestinationNeverAliasesPending(t *testing.T) {
	e, fs := newFS(t, 64, 8)
	run(e, func(p *sim.Proc) {
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 30*BlockSize) // past the direct pointers: an indirect block is walked
		for i := range want {
			want[i] = byte(i/5) | 1
		}
		if _, err := f.WriteAt(p, want, 0); err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			dst := make([]byte, len(want))
			if n, err := f.ReadAtInto(p, 0, dst); err != nil || n != len(want) || !bytes.Equal(dst, want) {
				t.Fatalf("%s: ReadAtInto returns different bytes (n=%d, err=%v)", when, n, err)
			}
			clear(dst)
			got, err := f.ReadAt(p, 0, len(want))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s, after scribbling on the previous destination: ReadAt returns different bytes (err=%v)", when, err)
			}
			clear(got)
		}
		if fs.Pending() == 0 {
			t.Fatal("nothing staged: the test would not exercise the segment image")
		}
		check("staged")
		check("staged again")
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		check("on the device")
		check("on the device again")
	})
}
