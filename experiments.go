package raidii

import (
	"fmt"
	"math/rand"
	"time"

	"raidii/internal/client"
	"raidii/internal/disk"
	"raidii/internal/hippi"
	"raidii/internal/host"
	"raidii/internal/lfs"
	"raidii/internal/scsi"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/ufs"
	"raidii/internal/workload"
	"raidii/internal/xbus"
)

// This file contains one runner per table and figure of the paper's
// evaluation, each reproducing the corresponding workload on the simulated
// hardware and returning the measured series.  EXPERIMENTS.md records the
// paper-reported values next to what these runners produce.  Every runner
// is written on the harness in harness.go: one scope per machine, closed
// before the next is built.

// outstanding is the number of concurrent requests the raw-hardware
// benchmarks keep in flight, emulating the prototype driver's asynchronous
// command queue.  The LFS measurements of Figure 8 use a single process,
// exactly as §3.4 describes.
const outstanding = 4

// randomReads issues n aligned 1 MB random hardware reads over the whole of
// b's array, outstanding at a time, crediting each completion to tl when one
// is given.
func randomReads(r *rig, b *server.Board, n int, tl *timeline) (workload.Result, error) {
	const size = 1 << 20
	const align = int64(size / 512)
	space := b.Array.Sectors()
	return r.fixedOps(outstanding, n, func(p *sim.Proc, _ int, rng *rand.Rand) (int, error) {
		off := workload.RandomAligned(rng, space-align, align)
		if err := b.HardwareRead(p, off, size); err != nil {
			return 0, err
		}
		if tl != nil {
			tl.credit(p.Now(), size)
		}
		return size, nil
	})
}

// zeroFill writes zeros over b's array from stripe `from` to the end, whole
// stripes at a time, so that a later rebuild reconstructs the whole disk: a
// rebuild skips the stripes no write has reached.
func zeroFill(r *rig, b *server.Board, from int64) error {
	const batch = 16 // stripes per write
	stripe := int64(b.Array.DataDisks() * b.Array.StripeUnitSectors())
	sec := int64(b.Array.SectorSize())
	zeros := make([]byte, batch*stripe*sec)
	return r.do("zero-fill", func(p *sim.Proc) error {
		for lba := from * stripe; lba < b.Array.Sectors(); lba += batch * stripe {
			n := min(batch*stripe, b.Array.Sectors()-lba)
			if err := b.Array.Write(p, lba, zeros[:n*sec]); err != nil {
				return err
			}
		}
		return nil
	})
}

// streamRead reads the first n bytes of d sequentially in 64 KB commands.
func streamRead(p *sim.Proc, d *scsi.Disk, n int) error {
	lba := int64(0)
	for read := 0; read < n; read += 128 * 512 {
		if _, err := d.Read(p, lba, 128, nil); err != nil {
			return err
		}
		lba += 128
	}
	return nil
}

// Fig5 reproduces Figure 5: hardware system-level random read and write
// throughput versus request size, on the 24-disk RAID Level 5
// configuration, data looping disk -> XBUS -> HIPPI -> XBUS.
func Fig5(sizesKB []int) (*Figure, error) {
	fig := newFigure("Figure 5: hardware system-level random I/O", "request KB", "MB/s")
	reads := fig.AddSeries("reads")
	writes := fig.AddSeries("writes")
	for _, kb := range sizesKB {
		for _, wr := range []bool{false, true} {
			label := fmt.Sprintf("fig5/%dKB/%s", kb, rwLabel(wr))
			err := withSystem(label, server.DefaultConfig(), func(r *rig, sys *server.System) error {
				b := sys.Boards[0]
				size := kb << 10
				space := b.Array.Sectors()
				total := 32 << 20
				if total < 4*size {
					total = 4 * size
				}
				res, err := r.fixedOps(outstanding, total/size, func(p *sim.Proc, _ int, rng *rand.Rand) (int, error) {
					align := int64(size / 512)
					off := workload.RandomAligned(rng, space-align, align)
					if wr {
						return size, b.HardwareWrite(p, off, size)
					}
					return size, b.HardwareRead(p, off, size)
				})
				if wr {
					writes.Add(float64(kb), res.MBps())
				} else {
					reads.Add(float64(kb), res.MBps())
				}
				return err
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return fig, nil
}

// Table1Result holds the peak sequential bandwidths of Table 1.
type Table1Result struct {
	ReadMBps  float64
	WriteMBps float64
}

// Table1 reproduces Table 1: peak sequential read/write with the fifth
// Cougar attached through the XBUS control-bus port and 1.6 MB requests.
func Table1() (Table1Result, error) {
	var out Table1Result
	for _, wr := range []bool{false, true} {
		cfg := server.DefaultConfig()
		cfg.FifthCougar = true
		err := withSystem("table1/"+rwLabel(wr), cfg, func(r *rig, sys *server.System) error {
			b := sys.Boards[0]
			const req = 1600 << 10
			var cursor int64
			res, err := r.fixedOps(outstanding, 48, func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
				off := cursor
				cursor += int64(req / 512)
				if wr {
					return req, b.HardwareWrite(p, off, req)
				}
				return req, b.HardwareRead(p, off, req)
			})
			if wr {
				out.WriteMBps = res.MBps()
			} else {
				out.ReadMBps = res.MBps()
			}
			return err
		})
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Table2Result holds the small-I/O rates of Table 2.
type Table2Result struct {
	RAIDIOneDisk  float64
	RAIDIFifteen  float64
	RAIDIIOneDisk float64
	RAIDIIFifteen float64
	RAIDIPercent  float64 // fifteen-disk rate as % of 15x single disk
	RAIDIIPercent float64
}

// smallReads runs workers processes issuing 4 KB random reads over the
// first space sectors until the horizon, worker w through read(p, w, ...),
// and returns the I/O rate.
func smallReads(r *rig, workers int, horizon sim.Time, space int64,
	read func(p *sim.Proc, w int, lba int64, bytes int) error) (float64, error) {
	res, err := r.closedLoop(workers, horizon, func(p *sim.Proc, w int, rng *rand.Rand) (int, error) {
		return 4096, read(p, w, workload.RandomAligned(rng, space, 8), 4096)
	})
	return res.IOPS(), err
}

// Table2 reproduces Table 2: 4 KB random read I/O rates with one process
// per active disk, on RAID-I (Wren IV, all data through host memory) and
// RAID-II (IBM 0661, data stays on the XBUS board).
func Table2() (Table2Result, error) {
	var out Table2Result
	horizon := sim.Time(4e9)

	measure2 := func(disks int) (iops float64, err error) {
		err = withSystem(fmt.Sprintf("table2/raid2/%ddisk", disks), server.DefaultConfig(), func(r *rig, sys *server.System) error {
			b := sys.Boards[0]
			var err error
			iops, err = smallReads(r, disks, horizon, b.Disks[0].Sectors()-8, b.SmallDiskRead)
			return err
		})
		return iops, err
	}
	measure1 := func(disks int) (iops float64, err error) {
		err = withRAIDI(fmt.Sprintf("table2/raid1/%ddisk", disks), func(r *rig, m *server.RAIDI) error {
			var err error
			iops, err = smallReads(r, disks, horizon, m.Disks[0].Sectors()-8, m.SmallDiskRead)
			return err
		})
		return iops, err
	}

	var err error
	if out.RAIDIIOneDisk, err = measure2(1); err != nil {
		return out, err
	}
	if out.RAIDIIFifteen, err = measure2(15); err != nil {
		return out, err
	}
	if out.RAIDIOneDisk, err = measure1(1); err != nil {
		return out, err
	}
	if out.RAIDIFifteen, err = measure1(15); err != nil {
		return out, err
	}
	out.RAIDIPercent = out.RAIDIFifteen / (15 * out.RAIDIOneDisk) * 100
	out.RAIDIIPercent = out.RAIDIIFifteen / (15 * out.RAIDIIOneDisk) * 100
	return out, nil
}

// Fig6 reproduces Figure 6: HIPPI loopback throughput versus request size
// (XBUS memory -> source board -> destination board -> XBUS memory).
func Fig6(sizesKB []int) (*Figure, error) {
	fig := newFigure("Figure 6: HIPPI loopback", "request KB", "MB/s")
	s := fig.AddSeries("loopback")
	for _, kb := range sizesKB {
		err := withEngine(fmt.Sprintf("fig6/%dKB", kb), func(r *rig) error {
			hcfg := hippi.DefaultConfig()
			board := xbus.New(r.eng, "xb", xbus.DefaultConfig())
			ep := &hippi.Endpoint{Name: "xb", Out: board.HIPPIS.Out(), In: board.HIPPID.In(), Setup: hcfg.PacketSetup}
			size := kb << 10
			total := 32 << 20
			if total < 8*size {
				total = 8 * size
			}
			var end sim.Time
			err := r.do("loop", func(p *sim.Proc) error {
				for sent := 0; sent < total; sent += size {
					hippi.Loopback(p, ep, hcfg, size)
				}
				end = p.Now()
				return nil
			})
			s.Add(float64(kb), mbps(total, end))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// Fig7 reproduces Figure 7: aggregate sequential read bandwidth versus the
// number of disks on one SCSI string, against the linear-scaling ideal.
func Fig7(diskCounts []int) (*Figure, error) {
	fig := newFigure("Figure 7: disks per SCSI string", "disks", "MB/s")
	measured := fig.AddSeries("measured")
	linear := fig.AddSeries("linear")
	oneDisk, err := stringRigRate(1)
	if err != nil {
		return nil, err
	}
	for _, n := range diskCounts {
		rate, err := stringRigRate(n)
		if err != nil {
			return nil, err
		}
		measured.Add(float64(n), rate)
		linear.Add(float64(n), oneDisk*float64(n))
	}
	return fig, nil
}

// stringRigRate measures n IBM 0661 drives streaming concurrently on one
// SCSI string of a fresh Cougar controller.
func stringRigRate(n int) (rate float64, err error) {
	err = withEngine(fmt.Sprintf("fig7/%ddisks", n), func(r *rig) error {
		ctl := scsi.NewController(r.eng, "fig7-cougar", scsi.DefaultConfig())
		const perDisk = 4 << 20
		for i := 0; i < n; i++ {
			dr, err := disk.New(r.eng, fmt.Sprintf("fig7-d%d", i), disk.IBM0661())
			if err != nil {
				return err
			}
			ad := ctl.Attach(dr, 0)
			r.spawn("rd", func(p *sim.Proc) error { return streamRead(p, ad, perDisk) })
		}
		end, err := r.run()
		rate = mbps(n*perDisk, end)
		return err
	})
	return rate, err
}

// Fig8 reproduces Figure 8: LFS random read and write bandwidth versus
// request size on the 16-disk configuration, a single process issuing
// requests, data moving to/from network buffers in XBUS memory.
func Fig8(sizesKB []int) (*Figure, error) {
	fig := newFigure("Figure 8: LFS on RAID-II", "request KB", "MB/s")
	reads := fig.AddSeries("reads")
	writes := fig.AddSeries("writes")

	for _, kb := range sizesKB {
		size := kb << 10
		total := 24 << 20
		if total < 2*size {
			total = 2 * size
		}

		// Reads: pre-build a large file, then random reads of the given size.
		err := withSystem(fmt.Sprintf("fig8/%dKB/read", kb), server.Fig8Config(), func(r *rig, sys *server.System) error {
			b := sys.Boards[0]
			const fileSize = 48 << 20
			var f *server.FSFile
			err := r.do("setup", func(p *sim.Proc) (err error) {
				if err := b.FormatFS(p); err != nil {
					return err
				}
				if f, err = b.CreateFS(p, "/big"); err != nil {
					return err
				}
				buf := make([]byte, 1<<20)
				for off := int64(0); off < fileSize; off += 1 << 20 {
					if _, err := f.File.WriteAt(p, buf, off); err != nil {
						return err
					}
				}
				return b.FS.Sync(p)
			})
			if err != nil {
				return err
			}
			res, err := r.fixedOps(1, total/size, func(p *sim.Proc, _ int, rng *rand.Rand) (int, error) {
				off := workload.RandomAligned(rng, fileSize-int64(size), int64(lfs.BlockSize))
				_, err := b.FSRead(p, f, off, size)
				return size, err
			})
			reads.Add(float64(kb), res.MBps())
			return err
		})
		if err != nil {
			return nil, err
		}

		// Writes: random writes of the given size into a fresh file space.
		err = withSystem(fmt.Sprintf("fig8/%dKB/write", kb), server.Fig8Config(), func(r *rig, sys *server.System) error {
			b := sys.Boards[0]
			var f *server.FSFile
			err := r.do("setup", func(p *sim.Proc) (err error) {
				if err := b.FormatFS(p); err != nil {
					return err
				}
				f, err = b.CreateFS(p, "/out")
				return err
			})
			if err != nil {
				return err
			}
			const span = 48 << 20
			buf := make([]byte, size)
			res, err := r.fixedOps(1, total/size, func(p *sim.Proc, _ int, rng *rand.Rand) (int, error) {
				off := workload.RandomAligned(rng, span-int64(size), int64(lfs.BlockSize))
				return size, b.FSWrite(p, f, off, buf)
			})
			writes.Add(float64(kb), res.MBps())
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// RAIDIResult holds the first-prototype baseline numbers of §1.
type RAIDIResult struct {
	UserReadMBps   float64 // large sequential reads to a user-level buffer
	SingleDiskMBps float64 // one Wren IV streaming
}

// RAIDIBaseline reproduces the §1 motivation: RAID-I sustains ~2.3 MB/s to
// a user-level application although a single disk manages 1.3 MB/s.
func RAIDIBaseline() (RAIDIResult, error) {
	var out RAIDIResult
	err := withRAIDI("raid1/user", func(r *rig, m *server.RAIDI) error {
		var cursor int64
		res, err := r.fixedOps(1, 16, func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
			const req = 1 << 20
			err := m.UserRead(p, cursor, req)
			cursor += int64(req / 512)
			return req, err
		})
		out.UserReadMBps = res.MBps()
		return err
	})
	if err != nil {
		return out, err
	}

	// One drive streaming without the host in the way.
	err = withRAIDI("raid1/disk", func(r *rig, m *server.RAIDI) error {
		const n = 4 << 20
		var end sim.Time
		err := r.do("d", func(p *sim.Proc) error {
			err := streamRead(p, m.Disks[0].Disk, n)
			end = p.Now()
			return err
		})
		out.SingleDiskMBps = mbps(n, end)
		return err
	})
	return out, err
}

// ClientResult holds the §3.4 network client measurements.
type ClientResult struct {
	ReadMBps    float64
	WriteMBps   float64
	HostCPUUtil float64
}

// ClientNetwork reproduces §3.4: a single SPARCstation 10/51 client
// reading and writing over the Ultranet, limited by its own copies while
// the server host stays nearly idle.
func ClientNetwork() (ClientResult, error) {
	var out ClientResult
	err := withSystem("client", server.Fig8Config(), func(r *rig, sys *server.System) error {
		b := sys.Boards[0]
		ws := client.NewWorkstation(sys, "ss10", host.SPARCstation10())
		const n = 12 << 20
		var readT, writeT sim.Duration
		err := r.do("t", func(p *sim.Proc) error {
			if err := b.FormatFS(p); err != nil {
				return err
			}
			f, err := ws.Create(p, 0, "/net")
			if err != nil {
				return err
			}
			if writeT, err = f.Write(p, 0, n); err != nil {
				return err
			}
			if err := b.FS.Sync(p); err != nil {
				return err
			}
			readT, err = f.Read(p, 0, n)
			return err
		})
		out.ReadMBps = mbps(n, readT)
		out.WriteMBps = mbps(n, writeT)
		out.HostCPUUtil = float64(sys.Host.CPUHeld()) / float64(sys.Eng.Now())
		return err
	})
	return out, err
}

// RecoveryResult compares crash-recovery cost (§3.1).
type RecoveryResult struct {
	VolumeMB      int
	LFSCheck      time.Duration // LFS mount incl. roll-forward + check
	UFSFsck       time.Duration // full traditional fsck
	LFSConsistent bool
	FsckLeakage   int64
}

// Recovery reproduces the §3.1 comparison: recovering an LFS after a crash
// takes seconds (process the log from the last checkpoint) while a
// traditional fsck must traverse the whole volume.
func Recovery(volumeMB int) (RecoveryResult, error) {
	out := RecoveryResult{VolumeMB: volumeMB}

	// LFS side: populate, crash, measure mount (roll-forward) plus check.
	err := withSystem("recovery/lfs", server.Fig8Config(), func(r *rig, sys *server.System) error {
		b := sys.Boards[0]
		return r.do("t", func(p *sim.Proc) error {
			if err := b.FormatFS(p); err != nil {
				return err
			}
			buf := make([]byte, 1<<20)
			nFiles := volumeMB / 4
			for i := 0; i < nFiles; i++ {
				f, err := b.FS.Create(p, fmt.Sprintf("/f%04d", i))
				if err != nil {
					return err
				}
				for j := 0; j < 4; j++ {
					if _, err := f.WriteAt(p, buf, int64(j)<<20); err != nil {
						return err
					}
				}
				if i == nFiles/2 {
					if err := b.FS.Checkpoint(p); err != nil { // half the log needs roll-forward
						return err
					}
				}
			}
			if err := b.FS.Sync(p); err != nil {
				return err
			}
			b.FS.Crash()
			start := p.Now()
			fs2, err := lfs.Mount(p, sys.Eng, b.Array)
			if err != nil {
				return err
			}
			rep, err := fs2.Check(p)
			if err != nil {
				return err
			}
			out.LFSConsistent = rep.OK()
			out.LFSCheck = p.Now().Sub(start)
			return nil
		})
	})
	if err != nil {
		return out, err
	}

	// UFS side: same volume of data, then a full fsck.
	err = withSystem("recovery/ufs", server.Fig8Config(), func(r *rig, sys *server.System) error {
		b := sys.Boards[0]
		return r.do("t", func(p *sim.Proc) error {
			fs, err := ufs.Format(p, sys.Eng, b.Array, 4096)
			if err != nil {
				return err
			}
			buf := make([]byte, 1<<20)
			for i := 1; i <= volumeMB/2; i++ {
				if err := fs.Create(p, i); err != nil {
					return err
				}
				for j := 0; j < 2; j++ {
					if _, err := fs.WriteAt(p, i, buf, int64(j)<<20); err != nil {
						return err
					}
				}
			}
			start := p.Now()
			rep, err := fs.Fsck(p)
			if err != nil {
				return err
			}
			out.FsckLeakage = rep.Leaked
			out.UFSFsck = p.Now().Sub(start)
			return nil
		})
	})
	return out, err
}

// Scaling reproduces §2.1.2: aggregate hardware read bandwidth as XBUS
// boards are added to one host.
func Scaling(boardCounts []int) (*Figure, error) {
	fig := newFigure("XBUS board scaling", "boards", "MB/s")
	s := fig.AddSeries("aggregate")
	for _, n := range boardCounts {
		cfg := server.DefaultConfig()
		cfg.Boards = n
		err := withSystem(fmt.Sprintf("scaling/%dboards", n), cfg, func(r *rig, sys *server.System) error {
			const perBoard = 32 << 20
			for _, b := range sys.Boards {
				for w := 0; w < outstanding; w++ {
					r.spawn("rd", func(p *sim.Proc) error {
						var cursor int64 = int64(w) * (perBoard / outstanding) / 512
						for read := 0; read < perBoard/outstanding; read += 1600 << 10 {
							// The host charges per-request control work, which
							// eventually saturates as boards are added.
							sys.Host.CPUWork(p, 2*time.Millisecond)
							if err := b.HardwareRead(p, cursor, 1600<<10); err != nil {
								return err
							}
							cursor += (1600 << 10) / 512
						}
						return nil
					})
				}
			}
			end, err := r.run()
			s.Add(float64(n), mbps(n*perBoard, end))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// formatFleet formats every board of every server of fl.
func formatFleet(p *sim.Proc, fl *server.Fleet) error {
	for _, sys := range fl.Servers {
		for _, b := range sys.Boards {
			if err := b.FormatFS(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// AblationResult compares a design choice on/off.
type AblationResult struct {
	Name    string
	With    float64
	Without float64
	Unit    string
	Comment string
}

// AblationParityEngine compares the XBUS hardware parity engine against
// computing parity on the host (RAID-I style) for sequential writes.
func AblationParityEngine() (AblationResult, error) {
	out := AblationResult{Name: "XBUS parity engine", Unit: "MB/s sequential write",
		Comment: "host XOR drags every parity byte through the Sun 4/280 memory system"}
	run := func(hostXOR bool) (rate float64, err error) {
		label := fmt.Sprintf("ablate/parity/hostxor=%v", hostXOR)
		err = withSystem(label, server.DefaultConfig(), func(r *rig, sys *server.System) error {
			b := sys.Boards[0]
			if hostXOR {
				b.Array.SetXOR(server.NewHostXOR(sys.Host))
			}
			const req = 1472 << 10 // one full stripe
			var cursor int64
			res, err := r.fixedOps(2, 24, func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
				off := cursor
				cursor += int64(req / 512)
				return req, b.HardwareWrite(p, off, req)
			})
			rate = res.MBps()
			return err
		})
		return rate, err
	}
	var err error
	if out.With, err = run(false); err != nil {
		return out, err
	}
	out.Without, err = run(true)
	return out, err
}

// AblationLFSSmallWrites compares LFS against the update-in-place baseline
// on small random writes — the reason RAID-II runs LFS at all.
func AblationLFSSmallWrites() (AblationResult, error) {
	out := AblationResult{Name: "LFS log batching", Unit: "4KB random write IOPS",
		Comment: "update-in-place pays the RAID-5 four-access small-write penalty"}

	// LFS.
	err := withSystem("ablate/smallwrites/lfs", server.Fig8Config(), func(r *rig, sys *server.System) error {
		b := sys.Boards[0]
		var f *server.FSFile
		err := r.do("setup", func(p *sim.Proc) (err error) {
			if err := b.FormatFS(p); err != nil {
				return err
			}
			if f, err = b.CreateFS(p, "/small"); err != nil {
				return err
			}
			if _, err := f.File.WriteAt(p, make([]byte, 2<<20), 0); err != nil {
				return err
			}
			return b.FS.Sync(p)
		})
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		res, err := r.fixedOps(1, 400, func(p *sim.Proc, _ int, rng *rand.Rand) (int, error) {
			off := workload.RandomAligned(rng, 2<<20-4096, 4096)
			return 4096, b.FSWrite(p, f, off, buf)
		})
		out.With = res.IOPS()
		return err
	})
	if err != nil {
		return out, err
	}
	// UFS on the same array geometry.
	err = withSystem("ablate/smallwrites/ufs", server.Fig8Config(), func(r *rig, sys *server.System) error {
		b := sys.Boards[0]
		var fs *ufs.FS
		err := r.do("setup", func(p *sim.Proc) (err error) {
			if fs, err = ufs.Format(p, sys.Eng, b.Array, 64); err != nil {
				return err
			}
			if err := fs.Create(p, 1); err != nil {
				return err
			}
			_, err = fs.WriteAt(p, 1, make([]byte, 2<<20), 0)
			return err
		})
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		res, err := r.fixedOps(1, 400, func(p *sim.Proc, _ int, rng *rand.Rand) (int, error) {
			off := workload.RandomAligned(rng, 2<<20-4096, 4096)
			sys.Host.CPUWork(p, 3*time.Millisecond)
			_, err := fs.WriteAt(p, 1, buf, off)
			return 4096, err
		})
		out.Without = res.IOPS()
		return err
	})
	return out, err
}

// AblationTwoPaths compares a large read over the high-bandwidth HIPPI
// path against the same read forced through the host and Ethernet — the
// architectural thesis of the paper.
func AblationTwoPaths() (AblationResult, error) {
	out := AblationResult{Name: "separate high-bandwidth data path", Unit: "MB/s large file read",
		Comment: "standard mode drags data through the Sun 4/280 and 10 Mb/s Ethernet"}
	err := withSystem("ablate/twopaths", server.Fig8Config(), func(r *rig, sys *server.System) error {
		b := sys.Boards[0]
		const n = 8 << 20
		return r.do("t", func(p *sim.Proc) error {
			if err := b.FormatFS(p); err != nil {
				return err
			}
			f, err := b.CreateFS(p, "/big")
			if err != nil {
				return err
			}
			if _, err := f.File.WriteAt(p, make([]byte, n), 0); err != nil {
				return err
			}
			if err := b.FS.Sync(p); err != nil {
				return err
			}
			start := p.Now()
			if _, err := b.FSRead(p, f, 0, n); err != nil {
				return err
			}
			out.With = mbps(n, p.Now().Sub(start))
			start = p.Now()
			if err := b.EtherRead(p, f, 0, n); err != nil {
				return err
			}
			out.Without = mbps(n, p.Now().Sub(start))
			return nil
		})
	})
	return out, err
}

// AblationStripeUnit sweeps the striping unit for 1 MB hardware random
// reads, one of the design parameters §2.2 fixes at 64 KB.
func AblationStripeUnit(unitsKB []int) (*Figure, error) {
	fig := newFigure("Stripe unit sweep (1 MB random reads)", "unit KB", "MB/s")
	s := fig.AddSeries("reads")
	for _, kb := range unitsKB {
		cfg := server.DefaultConfig()
		cfg.StripeUnitSectors = kb * 2
		err := withSystem(fmt.Sprintf("ablate/stripeunit/%dKB", kb), cfg, func(r *rig, sys *server.System) error {
			res, err := randomReads(r, sys.Boards[0], 24, nil)
			s.Add(float64(kb), res.MBps())
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// RebuildResult holds the degraded-mode and reconstruction measurements.
// The paper defers reliability analysis to its references, but the array
// implements the machinery; this experiment quantifies it.
type RebuildResult struct {
	NormalReadMBps   float64
	DegradedReadMBps float64
	RebuildDuration  time.Duration
	RebuildMBps      float64 // reconstruction rate onto the spare
}

// rebuiltBytes converts a rebuild's stripe count to bytes written to the
// spare.
func rebuiltBytes(b *server.Board, stripes int64) int64 {
	return stripes * int64(b.Array.StripeUnitSectors()) * 512
}

// Rebuild measures large-read bandwidth on the healthy array, fails one
// disk and measures degraded reads (every access to the lost column fans
// out to all surviving disks plus parity), then reconstructs onto a spare
// and reports the rebuild rate.  The array is zero-filled first, so the
// rebuild is a whole-disk one.
func Rebuild() (RebuildResult, error) {
	var out RebuildResult
	err := withSystem("rebuild", server.Fig8Config(), func(r *rig, sys *server.System) error {
		b := sys.Boards[0]
		if err := zeroFill(r, b, 0); err != nil {
			return err
		}
		res, err := randomReads(r, b, 24, nil)
		if err != nil {
			return err
		}
		out.NormalReadMBps = res.MBps()
		if err := b.Array.FailDisk(3); err != nil {
			return err
		}
		if res, err = randomReads(r, b, 24, nil); err != nil {
			return err
		}
		out.DegradedReadMBps = res.MBps()

		spare, err := b.AttachSpare(0, 0)
		if err != nil {
			return err
		}
		var stripes int64
		start := sys.Eng.Now()
		r.spawn("rebuild", func(p *sim.Proc) (err error) {
			stripes, err = b.Array.Reconstruct(p, 3, spare)
			return err
		})
		end, err := r.run()
		out.RebuildDuration = time.Duration(end - start)
		out.RebuildMBps = mbps(rebuiltBytes(b, stripes), out.RebuildDuration)
		return err
	})
	return out, err
}

// AblationDiskScheduler compares actuator scheduling policies on the
// Table 2 workload at higher per-disk queue depth (where policy matters).
func AblationDiskScheduler() (AblationResult, error) {
	out := AblationResult{Name: "SSTF disk scheduling", Unit: "4KB random read IOPS (4 disks, qdepth 4)",
		Comment: "the 1993 drive firmware serviced FIFO; seek-aware scheduling helps queued small I/O"}
	run := func(policy disk.SchedPolicy) (iops float64, err error) {
		cfg := server.DefaultConfig()
		cfg.DiskSched = policy
		err = withSystem(fmt.Sprintf("ablate/sched/%v", policy), cfg, func(r *rig, sys *server.System) error {
			b := sys.Boards[0]
			// 16 workers over 4 disks: queue depth ~4 per actuator.
			var err error
			iops, err = smallReads(r, 16, sim.Time(3e9), b.Disks[0].Sectors()-8,
				func(p *sim.Proc, w int, lba int64, bytes int) error { return b.SmallDiskRead(p, w%4, lba, bytes) })
			return err
		})
		return iops, err
	}
	var err error
	if out.With, err = run(disk.SchedSSTF); err != nil {
		return out, err
	}
	out.Without, err = run(disk.SchedFIFO)
	return out, err
}

// FileServerResult summarizes the synthetic trace run.
type FileServerResult struct {
	Ops          uint64
	Elapsed      time.Duration
	OpsPerSec    float64
	MeanReadMs   float64
	MeanWriteMs  float64
	SegsCleaned  uint64
	FSConsistent bool

	// Re-read phase: the hottest files of the Zipf distribution read
	// again after the trace, mostly hitting the XBUS block cache.
	ReReadMBps  float64
	CacheHits   uint64
	CacheMisses uint64

	// Per-request latency distributions of the trace phase, with stage
	// breakdown (the re-read phase runs under its own request kind and
	// does not pollute these).
	ReadLatency  LatencyStats
	WriteLatency LatencyStats
}

// FileServerTrace drives the assembled server with a Zipf-skewed
// workstation file-server mix (reads dominate, small files dominate,
// create/remove churn feeds the cleaner), the workload §4.1 contrasts
// RAID-II against NFS boxes for.  It is an end-to-end integration
// experiment rather than a figure from the paper.
func FileServerTrace(ops int) (FileServerResult, error) {
	var out FileServerResult
	cfg := server.Fig8Config()
	// An 8 MB XBUS-resident block cache with 16 KB lines (small lines suit
	// the trace's small-file traffic); see DESIGN.md §10.
	cfg.CacheBytes = 8 << 20
	cfg.CacheLineBytes = 16 << 10
	err := withSystem("fileserver", cfg, func(r *rig, sys *server.System) error {
		telemetry.Attach(sys.Eng)
		b := sys.Boards[0]
		tr := workload.NewTrace(workload.DefaultTraceConfig())

		// Populate.
		err := r.do("setup", func(p *sim.Proc) error {
			if err := b.FormatFS(p); err != nil {
				return err
			}
			if err := b.FS.Mkdir(p, "/srv"); err != nil {
				return err
			}
			for i := 0; i < tr.Files(); i++ {
				f, err := b.FS.Create(p, tr.PathOf(i))
				if err != nil {
					return err
				}
				if _, err := f.WriteAt(p, make([]byte, tr.SizeOf(i)), 0); err != nil {
					return err
				}
			}
			return b.FS.Checkpoint(p)
		})
		if err != nil {
			return err
		}

		var readLat, writeLat telemetry.Histogram
		start := sys.Eng.Now()
		r.spawn("trace", func(p *sim.Proc) error {
			for i := 0; i < ops; i++ {
				op := tr.Next()
				t0 := p.Now()
				switch op.Kind {
				case "read":
					f, err := b.OpenFS(p, op.Path)
					if err != nil {
						return err
					}
					if _, err := b.FSRead(p, f, op.Off, op.Size); err != nil {
						return err
					}
					readLat.Observe(p.Now().Sub(t0))
				case "write":
					f, err := b.OpenFS(p, op.Path)
					if err != nil {
						return err
					}
					if err := b.FSWrite(p, f, op.Off, make([]byte, op.Size)); err != nil {
						return err
					}
					writeLat.Observe(p.Now().Sub(t0))
				case "create":
					f, err := b.CreateFS(p, op.Path)
					if err != nil {
						return err
					}
					if err := b.FSWrite(p, f, 0, make([]byte, op.Size)); err != nil {
						return err
					}
				case "remove":
					if err := b.FS.Remove(p, op.Path); err != nil {
						return err
					}
				}
				out.Ops++
			}
			return b.FS.Sync(p)
		})
		end, err := r.run()
		if err != nil {
			return err
		}
		out.Elapsed = time.Duration(end - start)
		out.OpsPerSec = float64(out.Ops) / out.Elapsed.Seconds()
		out.MeanReadMs = float64(readLat.Mean().Microseconds()) / 1e3
		out.MeanWriteMs = float64(writeLat.Mean().Microseconds()) / 1e3
		out.SegsCleaned = b.FS.Stats().SegmentsCleaned

		// Re-read phase: read the hottest files again.  Their blocks were
		// touched most recently, so they are the LRU survivors in the block
		// cache and the phase is served mostly from XBUS DRAM.
		var reBytes uint64
		reStart := sys.Eng.Now()
		r.spawn("reread", func(p *sim.Proc) error {
			// One "reread" request spans the whole phase, so its FSReads join
			// it instead of polluting the trace phase's fs-read distribution.
			req := telemetry.Begin(p, "reread")
			defer req.End(p, nil)
			hot := tr.Files()
			if hot > 24 {
				hot = 24
			}
			for i := 0; i < hot; i++ {
				f, err := b.OpenFS(p, tr.PathOf(i))
				if err != nil {
					return err
				}
				if _, err := b.FSRead(p, f, 0, tr.SizeOf(i)); err != nil {
					return err
				}
				reBytes += uint64(tr.SizeOf(i))
			}
			return nil
		})
		reEnd, err := r.run()
		if err != nil {
			return err
		}
		out.ReReadMBps = mbps(reBytes, reEnd.Sub(reStart))
		if b.Cache != nil {
			st := b.Cache.Stats()
			out.CacheHits, out.CacheMisses = st.Hits, st.Misses
		}
		out.ReadLatency = telemetry.From(sys.Eng).Summary("fs-read")
		out.WriteLatency = telemetry.From(sys.Eng).Summary("fs-write")

		return r.do("check", func(p *sim.Proc) error {
			rep, err := b.FS.Check(p)
			out.FSConsistent = err == nil && rep.OK()
			return err
		})
	})
	return out, err
}
