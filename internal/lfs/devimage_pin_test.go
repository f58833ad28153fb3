package lfs

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"raidii/internal/raid"
	"raidii/internal/sim"
)

// The device-image pin.  A fixed workload — full segments, partial seals,
// blocks patched while staged, blocks overwritten while their segment is
// still in flight, indirect blocks, directories, a checkpoint and a cleaner
// pass — runs over one slow memory device, and the SHA-256 of every region
// of that device afterwards must equal testdata/devimage_pin.txt, which was
// recorded from the code that staged each block in a buffer of its own and
// copied them into a fresh segment buffer at seal time.  A change to how
// the log is staged passes it unmodified or has changed what reaches the
// disk; on a mismatch the first differing segment is named.  The script
// drives the package's exported API only, so the same file records and
// checks (segAddr, to find where the segments start, is the one internal).
//
// Regenerate (only for a change that is meant to move device contents):
//
//	go test ./internal/lfs/ -run TestDeviceImagePin -update
var updatePin = flag.Bool("update", false, "rewrite testdata/devimage_pin.txt from the current code")

// slowDev is a MemDev whose writes take simulated time, so a sealed
// segment stays in flight while the script goes on writing.
type slowDev struct {
	*raid.MemDev
	writeDelay time.Duration
}

func (d *slowDev) Write(p *sim.Proc, lba int64, data []byte) error {
	p.Wait(d.writeDelay)
	return d.MemDev.Write(p, lba, data)
}

func newSlowDev(devMB int) *slowDev {
	return &slowDev{MemDev: raid.NewMemDev(int64(devMB)<<20/512, 512), writeDelay: 3 * time.Millisecond}
}

// pinPattern is n bytes that differ by tag and position.
func pinPattern(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i) ^ byte(i>>8)*7
	}
	return b
}

// pinScript runs the fixed workload and returns one line per device region.
func pinScript(t *testing.T) []string {
	t.Helper()
	e := sim.New()
	dev := newSlowDev(8)
	var head int // bytes before the first segment: superblock and checkpoint regions
	var stats Stats
	run(e, func(p *sim.Proc) {
		fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
		if err != nil {
			t.Fatal(err)
		}
		head = int(fs.segAddr(0)) * BlockSize
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		var oracle []byte // what /a must read back as
		writeA := func(f *File, data []byte, off int64) {
			t.Helper()
			if _, err := f.WriteAt(p, data, off); err != nil {
				t.Fatal(err)
			}
			if need := int(off) + len(data); need > len(oracle) {
				oracle = append(oracle, make([]byte, need-len(oracle))...)
			}
			copy(oracle[off:], data)
		}

		// A checkpointed segment whose data dies while its metadata stays
		// live; the cleaner moves that metadata — a data block, inodes, the
		// inode-map and usage chunks — into the current segment, and the next
		// write and checkpoint patch all of it in its staged slots.
		x, err := fs.Create(p, "/x")
		must(err)
		y, err := fs.Create(p, "/y")
		must(err)
		_, err = x.WriteAt(p, pinPattern(6*BlockSize, 0x01), 0)
		must(err)
		_, err = y.WriteAt(p, pinPattern(BlockSize, 0x02), 0)
		must(err)
		must(fs.Checkpoint(p))
		_, err = x.WriteAt(p, pinPattern(6*BlockSize, 0x03), 0)
		must(err)
		must(fs.Sync(p))
		if _, err := fs.Clean(p, fs.FreeSegments()+2); err != nil {
			t.Fatal(err)
		}
		_, err = y.WriteAt(p, pinPattern(10, 0x04), 100)
		must(err)
		_, err = fs.Create(p, "/z") // a new inode: the inode-map chunk is dirty again
		must(err)
		must(fs.Checkpoint(p))

		// Single- and double-indirect blocks the cleaner has to move: a
		// sparse file shares a segment with a file that is then removed.
		tall, err := fs.Create(p, "/tall")
		must(err)
		junk, err := fs.Create(p, "/junk")
		must(err)
		tallBlocks := []int64{0, NDirect + 5, NDirect + PtrsPerBlock + 3}
		for i, fb := range tallBlocks {
			_, err = tall.WriteAt(p, pinPattern(BlockSize, byte(0x06+i)), fb*BlockSize)
			must(err)
		}
		_, err = junk.WriteAt(p, pinPattern(7*BlockSize, 0x05), 0)
		must(err)
		must(fs.Checkpoint(p))
		must(fs.Remove(p, "/junk"))
		must(fs.Sync(p))
		if _, err := fs.Clean(p, fs.FreeSegments()+4); err != nil {
			t.Fatal(err)
		}
		must(fs.Sync(p))

		// Full segments, an indirect block patched while staged, and a tail
		// that stops inside a block.
		a, err := fs.Create(p, "/a")
		must(err)
		writeA(a, pinPattern(40*BlockSize+100, 0x11), 0)
		// Sub-block patch of a block in the current segment, then of one
		// whose segment is sealed and still in flight.
		writeA(a, pinPattern(100, 0x22), 40*BlockSize+50)
		writeA(a, pinPattern(300, 0x33), 5*BlockSize+17)
		// Whole-block overwrite of an in-flight block.
		writeA(a, pinPattern(BlockSize, 0x44), 7*BlockSize)
		must(fs.Sync(p)) // partial seal

		must(fs.Mkdir(p, "/dir"))
		b, err := fs.Create(p, "/dir/b")
		must(err)
		_, err = b.WriteAt(p, []byte("small file"), 0)
		must(err)
		_, err = b.WriteAt(p, pinPattern(700, 0x55), 9*BlockSize+3000) // past a hole, across a block boundary
		must(err)
		must(b.Sync(p))

		// Overwrites of blocks that are on the device: whole blocks, and a
		// range that starts and ends inside blocks.
		writeA(a, pinPattern(3*BlockSize, 0x66), 2*BlockSize)
		writeA(a, pinPattern(200, 0x77), 20*BlockSize+4000)
		must(fs.Checkpoint(p))

		// Garbage for the cleaner: short-lived files between long-lived ones.
		for i := 0; i < 12; i++ {
			f, err := fs.Create(p, fmt.Sprintf("/dir/f%02d", i))
			must(err)
			_, err = f.WriteAt(p, pinPattern(5*BlockSize+i, byte(0x80+i)), 0)
			must(err)
		}
		for i := 0; i < 12; i += 2 {
			must(fs.Remove(p, fmt.Sprintf("/dir/f%02d", i)))
		}
		must(fs.Rename(p, "/dir/f01", "/g"))
		must(b.Truncate(p))
		must(fs.Sync(p))
		// Clean a segment at a time, then dirty every long-lived file and
		// checkpoint in the segment the cleaner was filling: what it moved
		// there — inodes, inode-map and usage chunks — is rewritten in its
		// staged slot.
		for round := 0; round < 6; round++ {
			if _, err := fs.Clean(p, fs.FreeSegments()+1); err != nil {
				t.Fatal(err)
			}
			writeA(a, pinPattern(9+round, byte(0x90+round)), int64(41+round)*BlockSize-4)
			for _, name := range []string{"/g", "/dir/f03", "/dir/f07", "/dir/f11"} {
				f, err := fs.Open(p, name)
				must(err)
				_, err = f.WriteAt(p, []byte{byte(round)}, int64(round))
				must(err)
			}
			_, err = fs.Create(p, fmt.Sprintf("/after-clean-%d", round))
			must(err)
			must(fs.Checkpoint(p))
		}

		// Double-indirect blocks, through a sparse file: appended, patched
		// while staged, and rewritten once they are on the device.
		const dind = NDirect + PtrsPerBlock
		sp, err := fs.Create(p, "/sparse")
		must(err)
		for i, fb := range []int64{dind + 3, dind + 4, dind + PtrsPerBlock + 1} {
			_, err = sp.WriteAt(p, pinPattern(BlockSize, byte(0xa0+i)), fb*BlockSize)
			must(err)
		}
		must(sp.Sync(p))
		_, err = sp.WriteAt(p, pinPattern(BlockSize+5, 0xa9), (dind+4)*BlockSize)
		must(err)

		// Fill the log until it cleans by itself: the cleaner process the
		// seals start, and, since this writer seldom waits and the process
		// falls behind, appends that clean inline on the last free segment.
		must(fs.Mkdir(p, "/fill"))
		cleaned := fs.Stats().SegmentsCleaned
		for i := 0; fs.Stats().SegmentsCleaned < cleaned+10; i++ {
			if i == 400 {
				t.Fatal("the log never filled")
			}
			f, err := fs.Create(p, fmt.Sprintf("/fill/%03d", i))
			must(err)
			_, err = f.WriteAt(p, pinPattern(6*BlockSize-i, byte(i)), 0)
			must(err)
			if i%2 == 1 {
				must(fs.Remove(p, fmt.Sprintf("/fill/%03d", i-1)))
			}
			switch {
			case fs.Stats().SegmentsCleaned > cleaned:
				// Checkpoint on the full log, with the cleaner at work.
				must(fs.Sync(p))
				must(fs.Checkpoint(p))
			case i%8 == 7:
				must(fs.Sync(p)) // only segments that have landed can be cleaned
			}
		}
		writeA(a, pinPattern(777, 0xbb), 30*BlockSize+1000)
		must(fs.Sync(p))

		for _, c := range []struct {
			fb  int64
			tag byte
		}{{dind + 3, 0xa0}, {dind + 4, 0xa9}, {dind + PtrsPerBlock + 1, 0xa2}} {
			got, err := sp.ReadAt(p, c.fb*BlockSize, BlockSize)
			if err != nil || !bytes.Equal(got, pinPattern(BlockSize, c.tag)) {
				t.Fatalf("/sparse block %d reads back wrong (err %v)", c.fb, err)
			}
		}
		got, err := a.ReadAt(p, 0, len(oracle)+10)
		if err != nil || !bytes.Equal(got, oracle) {
			t.Fatalf("/a reads back wrong after the script (err %v, %d bytes, want %d)", err, len(got), len(oracle))
		}
		for i, fb := range tallBlocks {
			got, err := tall.ReadAt(p, fb*BlockSize, BlockSize)
			if err != nil || !bytes.Equal(got, pinPattern(BlockSize, byte(0x06+i))) {
				t.Fatalf("/tall block %d reads back wrong (err %v)", fb, err)
			}
		}
		rep, err := fs.Check(p)
		if err != nil || !rep.OK() {
			t.Fatalf("Check after the script: %+v, err %v", rep, err)
		}
		stats = fs.Stats()
	})

	img, err := dev.MemDev.Read(nil, 0, int(dev.Sectors()))
	if err != nil {
		t.Fatal(err)
	}
	const segBytes = 64 << 10
	lines := []string{fmt.Sprintf("stats     %+v", stats)}
	lines = append(lines, fmt.Sprintf("head      %x", sha256.Sum256(img[:head])))
	zero := make([]byte, segBytes)
	for off := head; off+segBytes <= len(img); off += segBytes {
		seg := img[off : off+segBytes]
		if bytes.Equal(seg, zero) {
			continue
		}
		lines = append(lines, fmt.Sprintf("seg %5d %x", (off-head)/segBytes, sha256.Sum256(seg)))
	}
	lines = append(lines, fmt.Sprintf("image     %x", sha256.Sum256(img)))
	return lines
}

func TestDeviceImagePin(t *testing.T) {
	got := pinScript(t)
	path := filepath.Join("testdata", "devimage_pin.txt")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<end>", "<end>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("device image diverges at line %d:\n  recorded: %s\n  now:      %s", i+1, w, g)
		}
	}
}
