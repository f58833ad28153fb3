package lfs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"raidii/internal/raid"
	"raidii/internal/sim"
)

// cmdDev is a delayDev that logs every read command it is given.
type cmdDev struct {
	*delayDev
	log []devCmd
}

// devCmd is a read command: when it was issued, its first sector and its
// length in sectors.
type devCmd struct {
	at   sim.Time
	lba  int64
	secs int
}

func (c devCmd) String() string { return fmt.Sprintf("%d lba %d +%d", c.at, c.lba, c.secs) }

func newCmdDev() *cmdDev {
	return &cmdDev{delayDev: &delayDev{MemDev: raid.NewMemDev(8<<20/512, 512), read: time.Millisecond, write: time.Millisecond}}
}

func (d *cmdDev) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	d.log = append(d.log, devCmd{p.Now(), lba, len(dst) / d.SectorSize()})
	return d.delayDev.ReadInto(p, lba, dst)
}

func (d *cmdDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	out := make([]byte, n*d.SectorSize())
	if err := d.ReadInto(p, lba, out); err != nil {
		return nil, err
	}
	return out, nil
}

// pieceFileSize is the size of the file writePieceFile leaves: 90 blocks
// and 1,000 bytes of a 91st.
const pieceFileSize = 90*BlockSize + 1000

// writePieceFile formats a log of 64 KB segments on dev and writes /f so
// that its blocks are in every state a read settles differently: on the
// device, holes (blocks 40-47), staged in the current segment, staged in
// sealed segments whose device writes are still in flight (they take an
// hour), and a last block only partly inside the file.
func writePieceFile(t *testing.T, p *sim.Proc, e *sim.Engine, dev *cmdDev) (*FS, *File) {
	t.Helper()
	fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(p, "/f")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range pieceWrites {
		if i == 3 {
			if err := fs.Sync(p); err != nil {
				t.Fatal(err)
			}
			dev.write = time.Hour
		}
		if _, err := f.WriteAt(p, pinPattern(w.n, w.tag), w.off); err != nil {
			t.Fatal(err)
		}
	}
	if len(fs.inflight) == 0 || fs.Pending() == 0 {
		t.Fatalf("%d segments in flight, %d bytes pending: the rig lacks a staged state", len(fs.inflight), fs.Pending())
	}
	return fs, f
}

// pieceWrites are writePieceFile's writes, in order; the first three reach
// the device.
var pieceWrites = []struct {
	off int64
	n   int
	tag byte
}{
	{0, 40 * BlockSize, 1},
	{48 * BlockSize, 42 * BlockSize, 2},
	{90 * BlockSize, 1000, 3},
	{10*BlockSize + 100, 30 * BlockSize, 4}, // seals two segments
	{60 * BlockSize, 5 * BlockSize, 5},      // stays in the current one
}

// pieceFileBytes returns the contents writePieceFile leaves in /f.
func pieceFileBytes() []byte {
	b := make([]byte, pieceFileSize)
	for _, w := range pieceWrites {
		copy(b[w.off:], pinPattern(w.n, w.tag))
	}
	return b
}

// pieceRanges are reads over every state writePieceFile leaves, whole and
// in part, and past the end of the file.
var pieceRanges = [][2]int64{
	{0, pieceFileSize},
	{100, 3*BlockSize + 17},
	{5 * BlockSize, BlockSize},
	{8 * BlockSize, 40 * BlockSize},
	{39*BlockSize + 5, 10 * BlockSize},
	{45*BlockSize + 7, 20 * BlockSize},
	{58 * BlockSize, 9*BlockSize - 1},
	{pieceFileSize - 10, 500},
	{pieceFileSize, BlockSize},
}

// TestReadAtIntoCommandPin: ReadAtInto issues the device commands, in the
// order and at the times, recorded in testdata/readinto_cmds.txt — recorded
// from the code whose read path cut nothing into pieces, so the piece path
// leaves whole-run reads alone.  Regenerate (only for a change meant to move
// what a read issues):
//
//	go test ./internal/lfs/ -run TestReadAtIntoCommandPin -update
func TestReadAtIntoCommandPin(t *testing.T) {
	e, dev := sim.New(), newCmdDev()
	var got []string
	run(e, func(p *sim.Proc) {
		_, f := writePieceFile(t, p, e, dev)
		for _, r := range pieceRanges {
			dev.log = nil
			n, err := f.ReadAtInto(p, r[0], make([]byte, r[1]))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("read %d +%d: %d bytes, done at %d", r[0], r[1], n, p.Now()))
			for _, c := range dev.log {
				got = append(got, c.String())
			}
		}
	})
	path := filepath.Join("testdata", "readinto_cmds.txt")
	text := strings.Join(got, "\n") + "\n"
	if *updatePin {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text == string(want) {
		return
	}
	gl, wl := strings.Split(text, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d: got %q, recorded %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, recorded %d", len(gl)-1, len(wl)-1)
}
