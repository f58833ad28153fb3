package scsi

import (
	"bytes"
	"fmt"
	"testing"

	"raidii/internal/disk"
	"raidii/internal/sim"
)

func newCtl(e *sim.Engine) *Controller {
	return NewController(e, "cougar0", DefaultConfig())
}

func TestAttachAndRoundTrip(t *testing.T) {
	e := sim.New()
	c := newCtl(e)
	ad := c.Attach(newDrive(t, e, "d0"), 0)
	data := make([]byte, 8*512)
	for i := range data {
		data[i] = byte(i)
	}
	var got []byte
	e.Spawn("t", func(p *sim.Proc) {
		_ = ad.Write(p, 100, data, nil)
		got, _ = ad.Read(p, 100, 8, nil)
	})
	e.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("round trip through string failed")
	}
}

// stringThroughput measures aggregate sequential read bandwidth with n
// disks streaming on one SCSI string (the Figure 7 experiment).
func stringThroughput(t *testing.T, n int) float64 {
	t.Helper()
	e := sim.New()
	c := newCtl(e)
	var disks []*Disk
	for i := 0; i < n; i++ {
		disks = append(disks, c.Attach(newDrive(t, e, fmt.Sprintf("d%d", i)), 0))
	}
	const perDisk = 2 << 20 // 2 MB each
	g := sim.NewGroup(e)
	for _, ad := range disks {
		g.Go("reader", func(p *sim.Proc) error {
			lba := int64(0)
			for read := 0; read < perDisk; read += 128 * 512 {
				if _, err := ad.Read(p, lba, 128, nil); err != nil {
					return err
				}
				lba += 128
			}
			return nil
		})
	}
	end := e.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	return float64(n*perDisk) / end.Seconds() / 1e6
}

func TestStringSaturatesNearThreeMBps(t *testing.T) {
	// Figure 7: one string saturates around 3 MB/s, "less than that of
	// three disks".
	one := stringThroughput(t, 1)
	three := stringThroughput(t, 3)
	five := stringThroughput(t, 5)
	if one < 1.2 || one > 2.0 {
		t.Fatalf("1 disk = %.2f MB/s, want ~1.5 (media-limited)", one)
	}
	if three < 2.5 || three > 3.25 {
		t.Fatalf("3 disks = %.2f MB/s, want ~3 (string-limited)", three)
	}
	if five > 3.25 {
		t.Fatalf("5 disks = %.2f MB/s, must not exceed string bandwidth", five)
	}
	if five < three*0.95 {
		t.Fatalf("5 disks (%.2f) should hold the string plateau (%.2f)", five, three)
	}
}

func TestTwoStringsExceedOne(t *testing.T) {
	// The controller has two strings; three disks on each should beat
	// three disks on one (until the 8 MB/s controller ceiling).
	run := func(split bool) float64 {
		e := sim.New()
		c := newCtl(e)
		var disks []*Disk
		for i := 0; i < 6; i++ {
			str := 0
			if split && i >= 3 {
				str = 1
			}
			disks = append(disks, c.Attach(newDrive(t, e, fmt.Sprintf("d%d", i)), str))
		}
		const perDisk = 1 << 20
		g := sim.NewGroup(e)
		for _, ad := range disks {
			g.Go("reader", func(p *sim.Proc) error {
				lba := int64(0)
				for read := 0; read < perDisk; read += 128 * 512 {
					if _, err := ad.Read(p, lba, 128, nil); err != nil {
						return err
					}
					lba += 128
				}
				return nil
			})
		}
		end := e.Run()
		if err := g.Err(); err != nil {
			t.Fatal(err)
		}
		return float64(6<<20) / end.Seconds() / 1e6
	}
	oneStr, twoStr := run(false), run(true)
	if twoStr <= oneStr*1.5 {
		t.Fatalf("two strings (%.2f) should be well above one (%.2f)", twoStr, oneStr)
	}
}

func TestControllerCeiling(t *testing.T) {
	// Even with both strings full, a Cougar cannot exceed its 8 MB/s
	// internal ceiling (here the strings cap at 2*3=6 anyway, so assert 6).
	e := sim.New()
	c := newCtl(e)
	var disks []*Disk
	for i := 0; i < 8; i++ {
		disks = append(disks, c.Attach(newDrive(t, e, fmt.Sprintf("d%d", i)), i%2))
	}
	const perDisk = 1 << 20
	g := sim.NewGroup(e)
	for _, ad := range disks {
		g.Go("reader", func(p *sim.Proc) error {
			lba := int64(0)
			for read := 0; read < perDisk; read += 128 * 512 {
				if _, err := ad.Read(p, lba, 128, nil); err != nil {
					return err
				}
				lba += 128
			}
			return nil
		})
	}
	end := e.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	rate := float64(8<<20) / end.Seconds() / 1e6
	if rate > 6.6 {
		t.Fatalf("controller rate %.2f exceeds dual-string limit", rate)
	}
	if rate < 5.0 {
		t.Fatalf("controller rate %.2f too low for two saturated strings", rate)
	}
}

func TestDisksAccessor(t *testing.T) {
	e := sim.New()
	c := newCtl(e)
	c.Attach(newDrive(t, e, "a"), 0)
	c.Attach(newDrive(t, e, "b"), 1)
	c.Attach(newDrive(t, e, "c"), 0)
	if got := len(c.Disks()); got != 3 {
		t.Fatalf("Disks() = %d, want 3", got)
	}
}

func TestWriteThroughUpstreamPath(t *testing.T) {
	e := sim.New()
	c := newCtl(e)
	ad := c.Attach(newDrive(t, e, "d0"), 0)
	vme := sim.NewLink(e, "vme", 5.9, 0)
	data := make([]byte, 64*512)
	var got []byte
	e.Spawn("t", func(p *sim.Proc) {
		_ = ad.Write(p, 0, data, sim.Path{vme})
		got, _ = ad.Read(p, 0, 64, sim.Path{vme})
	})
	e.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("round trip with upstream path failed")
	}
	if vme.BytesMoved() != uint64(2*len(data)) {
		t.Fatalf("vme moved %d bytes, want %d", vme.BytesMoved(), 2*len(data))
	}
}

// newDrive builds an IBM 0661 drive, failing the test on a bad spec.
func newDrive(tb testing.TB, e *sim.Engine, name string) *disk.Disk {
	tb.Helper()
	d, err := disk.New(e, name, disk.IBM0661())
	if err != nil {
		tb.Fatalf("disk.New(%s): %v", name, err)
	}
	return d
}
