package raidii

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSegmentsLongerThanOneSummaryBlock: a segment of more than 339 blocks
// has a summary of two blocks.  Both a configured 1400 KB segment and the
// default 24-disk board's derived one (1472 KB, one full stripe) format,
// seal, clean, roll forward after a crash, check clean and read every byte
// back.  A one-block summary could not describe such a segment, and its
// first full seal stopped the simulation.
func TestSegmentsLongerThanOneSummaryBlock(t *testing.T) {
	for _, c := range []struct {
		name   string
		opts   []Option
		wantKB int
	}{
		{"configured 1400 KB", []Option{WithSegmentKB(1400)}, 1400},
		{"default board", nil, 1472},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, err := NewServer(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			oracle := make(map[string][]byte)
			_, err = srv.Simulate(func(task *Task) error {
				bd := task.Board(0)
				if err := bd.FormatFS(); err != nil {
					return err
				}
				fs := bd.b.FS
				if got := fs.SegmentBytes(); got != c.wantKB<<10 {
					return fmt.Errorf("segment %d KB, want %d KB", got>>10, c.wantKB)
				}
				write := func(path string, size int, seed byte) error {
					f, err := bd.Create(path)
					if err != nil {
						f, err = bd.Open(path)
					}
					if err != nil {
						return err
					}
					data := make([]byte, size)
					for i := range data {
						data[i] = byte(i/4096)*7 + byte(i) + seed
					}
					if _, err := f.Write(0, data); err != nil {
						return err
					}
					oracle[path] = data
					return nil
				}
				// Four segments' worth in two files and a handful of small
				// ones, then an overwrite that leaves the first segments
				// mostly dead for the cleaner.
				seg := fs.SegmentBytes()
				for i, size := range []int{2 * seg, 2*seg + 12345, 5000, 4096, 1} {
					if err := write(fmt.Sprintf("/f%d", i), size, byte(i)); err != nil {
						return err
					}
				}
				if err := bd.Sync(); err != nil {
					return err
				}
				if err := write("/f0", 2*seg, 99); err != nil {
					return err
				}
				if err := bd.Sync(); err != nil {
					return err
				}
				if cleaned, err := bd.Clean(fs.FreeSegments() + 2); err != nil || cleaned == 0 {
					t.Errorf("Clean = %d, %v; want a segment cleaned", cleaned, err)
				}
				if err := bd.Sync(); err != nil {
					return err
				}
				if st := fs.Stats(); st.SegmentsWritten-st.PartialSegSeals < 3 {
					t.Errorf("%d full segments written, want at least 3", st.SegmentsWritten-st.PartialSegSeals)
				}

				bd.Crash()
				if err := bd.MountFS(); err != nil {
					return err
				}
				if rolled := bd.b.FS.Stats().RollForwardSegs; rolled < 3 {
					t.Errorf("mount rolled %d segments forward, want at least 3", rolled)
				}
				rep, err := bd.b.FS.Check(task.p)
				if err != nil {
					return err
				}
				if !rep.OK() {
					t.Errorf("lfs.Check after the mount: %+v", rep)
				}
				for path, want := range oracle {
					f, err := bd.Open(path)
					if err != nil {
						return err
					}
					got, _, err := f.Read(0, len(want))
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s read back wrong after the mount", path)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNVRAMHoldsTheDerivedSegment: the default board's segment is 1472 KB,
// so a 1 MB region holds none and fails assembly, and a region of one
// segment holds one image.
func TestNVRAMHoldsTheDerivedSegment(t *testing.T) {
	if _, err := NewServer(WithNVRAM(1 << 20)); err == nil {
		t.Error("a 1 MB region accepted on the default board")
	}
	srv, err := NewServer(WithNVRAM(1472 << 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Simulate(func(task *Task) error {
		if st := task.Board(0).NVRAMStats(); st.Images != 1 {
			t.Errorf("region = %+v, want one 1472 KB image", st)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
