package lfs

import (
	"bytes"
	"errors"
	"testing"

	"raidii/internal/sim"
)

// readFailDev fails every read once failing is set.  It embeds the
// four-method Device, so bytepath.ReadInto finds no ReadInto and every read
// comes through Read.
type readFailDev struct {
	Device
	failing bool
}

func (d *readFailDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	if d.failing {
		return nil, errors.New("device gone")
	}
	return d.Device.Read(p, lba, n)
}

// TestReadEarlyReturnsReleaseTheLock drives each early return of readAtRaw —
// a directory, an offset at or past EOF, a device error while resolving the
// file's blocks — and then reads again.  readAtRaw holds fs.mu while it
// resolves, so a return that leaked it would park the second read for good:
// the read must complete and the engine must end with no live process.
func TestReadEarlyReturnsReleaseTheLock(t *testing.T) {
	data := bytes.Repeat([]byte("raid-ii "), 64*BlockSize/8) // 64 blocks: past the direct pointers
	cases := []struct {
		name string
		read func(p *sim.Proc, fs *FS, f *File, dev *readFailDev) error
		want func(error) bool
	}{
		{"directory", func(p *sim.Proc, fs *FS, _ *File, _ *readFailDev) error {
			_, err := (&File{fs: fs, inum: RootInum}).ReadAt(p, 0, BlockSize)
			return err
		}, func(err error) bool { return errors.Is(err, ErrIsDir) }},
		{"at EOF", func(p *sim.Proc, _ *FS, f *File, _ *readFailDev) error {
			got, err := f.ReadAt(p, int64(len(data)), BlockSize)
			if err == nil && got != nil {
				return errors.New("read past EOF returned bytes")
			}
			return err
		}, func(err error) bool { return err == nil }},
		{"device error in the block walk", func(p *sim.Proc, _ *FS, f *File, dev *readFailDev) error {
			dev.failing = true
			defer func() { dev.failing = false }()
			_, err := f.ReadAt(p, 20*BlockSize, BlockSize) // its address is in the indirect block
			return err
		}, func(err error) bool { return err != nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New()
			dev := &readFailDev{Device: newDevice(e, 8)}
			var firstErr error
			var second []byte
			run(e, func(p *sim.Proc) {
				fs, err := Format(p, e, dev, Config{SegBytes: 64 << 10, MaxInodes: 1024, CleanReserve: 3})
				if err != nil {
					t.Fatal(err)
				}
				f, err := fs.Create(p, "/f")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(p, data, 0); err != nil {
					t.Fatal(err)
				}
				if err := fs.Checkpoint(p); err != nil {
					t.Fatal(err)
				}
				// A fresh mount has nothing cached, so resolving block 20
				// reads the indirect block from the device.
				fs.Crash()
				if fs, err = Mount(p, e, dev); err != nil {
					t.Fatal(err)
				}
				if f, err = fs.Open(p, "/f"); err != nil {
					t.Fatal(err)
				}
				firstErr = tc.read(p, fs, f, dev)
				second, err = f.ReadAt(p, 0, BlockSize)
				if err != nil {
					t.Fatal(err)
				}
			})
			if !tc.want(firstErr) {
				t.Errorf("first read returned %v", firstErr)
			}
			if !bytes.Equal(second, data[:BlockSize]) {
				t.Error("the read after the early return did not complete with the file's bytes")
			}
			if n := e.Live(); n != 0 {
				t.Errorf("%d processes still live after Run: fs.mu leaked", n)
			}
		})
	}
}
