package lfs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"raidii/internal/sim"
)

// TestReadAtPiecesProperty: for random ranges over holes, blocks on the
// device, blocks staged in the current segment and in segments whose seal
// is in flight, with partial first and last blocks, and piece sizes from
// one block (or less) to more than any run, the piece path hands over every
// byte of its result exactly once; each range it hands over holds, at that
// moment, what ReadAt returns for it; and the result is ReadAt's.
func TestReadAtPiecesProperty(t *testing.T) {
	e, dev := sim.New(), newCmdDev()
	run(e, func(p *sim.Proc) {
		fs, f := writePieceFile(t, p, e, dev)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 300; i++ {
			off := rng.Int63n(pieceFileSize + BlockSize)
			dst := bytes.Repeat([]byte{0xee}, 1+rng.Intn(48*BlockSize))
			piece := rng.Intn(24*BlockSize) + 1
			seen := make([]int, len(dst))
			ready := func(q *sim.Proc, o, n int) error {
				if o < 0 || n <= 0 || o+n > len(dst) {
					t.Errorf("read %d +%d: handed over [%d, +%d)", off, len(dst), o, n)
					return nil
				}
				for j := o; j < o+n; j++ {
					seen[j]++
				}
				if want, err := f.ReadAt(q, off+int64(o), n); err != nil || !bytes.Equal(dst[o:o+n], want) {
					t.Errorf("read %d +%d, piece %d: range [%d, +%d) handed over is not ReadAt's (err %v)", off, len(dst), piece, o, n, err)
				}
				return nil
			}
			got, err := f.ReadAtPieces(p, off, dst, piece, ready)
			want, werr := f.ReadAt(p, off, len(dst))
			if err != nil || werr != nil || got != len(want) || !bytes.Equal(dst[:got], want) {
				t.Fatalf("read %d +%d, piece %d: %d bytes (err %v), ReadAt %d (err %v)", off, len(dst), piece, got, err, len(want), werr)
			}
			for j, c := range seen {
				if c != 1 && j < got || c != 0 && j >= got {
					t.Fatalf("read %d +%d, piece %d: byte %d of %d handed over %d times", off, len(dst), piece, j, got, c)
				}
			}
		}
		if len(fs.inflight) == 0 {
			t.Fatal("the seals landed during the reads: the in-flight state went untested")
		}
	})
}

// TestReadAtPiecesCommands: the piece path issues no device command longer
// than the piece rounded down to whole blocks (one block at least), and with
// a piece longer than any run it issues exactly ReadAtInto's commands.
func TestReadAtPiecesCommands(t *testing.T) {
	e, dev := sim.New(), newCmdDev()
	run(e, func(p *sim.Proc) {
		_, f := writePieceFile(t, p, e, dev)
		none := func(*sim.Proc, int, int) error { return nil }
		for _, r := range pieceRanges {
			dst := make([]byte, r[1])
			dev.log = nil
			if _, err := f.ReadAtInto(p, r[0], dst); err != nil {
				t.Fatal(err)
			}
			whole := dev.log
			for _, piece := range []int{100, BlockSize, 3*BlockSize + 5, 6 * BlockSize, 1 << 20} {
				dev.log = nil
				if _, err := f.ReadAtPieces(p, r[0], dst, piece, none); err != nil {
					t.Fatal(err)
				}
				limit := max(piece/BlockSize, 1) * BlockSize / dev.SectorSize()
				for _, c := range dev.log {
					if c.secs > limit {
						t.Errorf("read %d +%d, piece %d: command %v is longer than %d sectors", r[0], r[1], piece, c, limit)
					}
				}
				if piece == 1<<20 && !slices.EqualFunc(dev.log, whole, sameCmd) {
					t.Errorf("read %d +%d: a piece past every run issues %v, ReadAtInto %v", r[0], r[1], dev.log, whole)
				}
			}
		}
	})
}

// sameCmd reports whether two commands read the same sectors.
func sameCmd(a, b devCmd) bool { return a.lba == b.lba && a.secs == b.secs }
