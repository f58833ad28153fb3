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
	"raidii/internal/metrics"
	"raidii/internal/scsi"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/ufs"
	"raidii/internal/workload"
	"raidii/internal/xbus"
	"raidii/internal/zebra"
)

// This file contains one runner per table and figure of the paper's
// evaluation, each reproducing the corresponding workload on the simulated
// hardware and returning the measured series.  EXPERIMENTS.md records the
// paper-reported values next to what these runners produce.

// Figure re-exports the metrics figure type for callers.
type Figure = metrics.Figure

// outstanding is the number of concurrent requests the raw-hardware
// benchmarks keep in flight, emulating the prototype driver's asynchronous
// command queue.  The LFS measurements of Figure 8 use a single process,
// exactly as §3.4 describes.
const outstanding = 4

// Fig5 reproduces Figure 5: hardware system-level random read and write
// throughput versus request size, on the 24-disk RAID Level 5
// configuration, data looping disk -> XBUS -> HIPPI -> XBUS.
func Fig5(sizesKB []int) (*Figure, error) {
	fig := metrics.NewFigure("Figure 5: hardware system-level random I/O", "request KB", "MB/s")
	reads := fig.AddSeries("reads")
	writes := fig.AddSeries("writes")
	for _, kb := range sizesKB {
		for _, wr := range []bool{false, true} {
			sys, err := server.New(server.DefaultConfig())
			if err != nil {
				return nil, err
			}
			defer sys.Eng.Shutdown()
			attachProbe(fmt.Sprintf("fig5/%dKB/%s", kb, rwLabel(wr)), sys.Eng)
			b := sys.Boards[0]
			size := kb << 10
			space := b.Array.Sectors()
			total := 32 << 20
			if total < 4*size {
				total = 4 * size
			}
			wr := wr
			var opErr error
			res := workload.FixedOps(sys.Eng, outstanding, total/size, func(p *sim.Proc, _ int, rng *rand.Rand) int {
				align := int64(size / 512)
				off := workload.RandomAligned(rng, space-align, align)
				var err error
				if wr {
					err = b.HardwareWrite(p, off, size)
				} else {
					err = b.HardwareRead(p, off, size)
				}
				if err != nil && opErr == nil {
					opErr = err
				}
				return size
			})
			if opErr != nil {
				return nil, opErr
			}
			if wr {
				writes.Add(float64(kb), res.MBps())
			} else {
				reads.Add(float64(kb), res.MBps())
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
		sys, err := server.New(cfg)
		if err != nil {
			return out, err
		}
		defer sys.Eng.Shutdown()
		attachProbe("table1/"+rwLabel(wr), sys.Eng)
		b := sys.Boards[0]
		const req = 1600 << 10
		var cursor int64
		wr := wr
		var opErr error
		res := workload.FixedOps(sys.Eng, outstanding, 48, func(p *sim.Proc, _ int, _ *rand.Rand) int {
			off := cursor
			cursor += int64(req / 512)
			var err error
			if wr {
				err = b.HardwareWrite(p, off, req)
			} else {
				err = b.HardwareRead(p, off, req)
			}
			if err != nil && opErr == nil {
				opErr = err
			}
			return req
		})
		if opErr != nil {
			return out, opErr
		}
		if wr {
			out.WriteMBps = res.MBps()
		} else {
			out.ReadMBps = res.MBps()
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

// Table2 reproduces Table 2: 4 KB random read I/O rates with one process
// per active disk, on RAID-I (Wren IV, all data through host memory) and
// RAID-II (IBM 0661, data stays on the XBUS board).
func Table2() (Table2Result, error) {
	var out Table2Result
	horizon := sim.Time(4e9)

	measure2 := func(disks int) (float64, error) {
		sys, err := server.New(server.DefaultConfig())
		if err != nil {
			return 0, err
		}
		defer sys.Eng.Shutdown()
		attachProbe(fmt.Sprintf("table2/raid2/%ddisk", disks), sys.Eng)
		b := sys.Boards[0]
		space := b.Disks[0].Sectors() - 8
		res := workload.ClosedLoop(sys.Eng, disks, horizon, func(p *sim.Proc, w int, rng *rand.Rand) int {
			if err := b.SmallDiskRead(p, w, workload.RandomAligned(rng, space, 8), 4096); err != nil {
				panic(err)
			}
			return 4096
		})
		return res.IOPS(), nil
	}
	measure1 := func(disks int) (float64, error) {
		r, err := server.NewRAIDI(server.DefaultRAIDIConfig())
		if err != nil {
			return 0, err
		}
		defer r.Eng.Shutdown()
		attachProbe(fmt.Sprintf("table2/raid1/%ddisk", disks), r.Eng)
		space := r.Disks[0].Sectors() - 8
		res := workload.ClosedLoop(r.Eng, disks, horizon, func(p *sim.Proc, w int, rng *rand.Rand) int {
			if err := r.SmallDiskRead(p, w, workload.RandomAligned(rng, space, 8), 4096); err != nil {
				panic(err)
			}
			return 4096
		})
		return res.IOPS(), nil
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
	fig := metrics.NewFigure("Figure 6: HIPPI loopback", "request KB", "MB/s")
	s := fig.AddSeries("loopback")
	for _, kb := range sizesKB {
		e := sim.New()
		defer e.Shutdown()
		attachProbe(fmt.Sprintf("fig6/%dKB", kb), e)
		hcfg := hippi.DefaultConfig()
		board := xbus.New(e, "xb", xbus.DefaultConfig())
		ep := &hippi.Endpoint{Name: "xb", Out: board.HIPPIS.Out(), In: board.HIPPID.In(), Setup: hcfg.PacketSetup}
		size := kb << 10
		total := 32 << 20
		if total < 8*size {
			total = 8 * size
		}
		var end sim.Time
		e.Spawn("loop", func(p *sim.Proc) {
			for sent := 0; sent < total; sent += size {
				hippi.Loopback(p, ep, hcfg, size)
			}
			end = p.Now()
		})
		e.Run()
		s.Add(float64(kb), float64(total)/end.Seconds()/1e6)
	}
	return fig, nil
}

// Fig7 reproduces Figure 7: aggregate sequential read bandwidth versus the
// number of disks on one SCSI string, against the linear-scaling ideal.
func Fig7(diskCounts []int) (*Figure, error) {
	fig := metrics.NewFigure("Figure 7: disks per SCSI string", "disks", "MB/s")
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
func stringRigRate(n int) (float64, error) {
	e := sim.New()
	defer e.Shutdown()
	attachProbe(fmt.Sprintf("fig7/%ddisks", n), e)
	ctl := scsi.NewController(e, "fig7-cougar", scsi.DefaultConfig())
	const perDisk = 4 << 20
	g := sim.NewGroup(e)
	for i := 0; i < n; i++ {
		dr, err := disk.New(e, fmt.Sprintf("fig7-d%d", i), disk.IBM0661())
		if err != nil {
			return 0, err
		}
		ad := ctl.Attach(dr, 0)
		g.Go("rd", func(p *sim.Proc) {
			lba := int64(0)
			for read := 0; read < perDisk; read += 128 * 512 {
				if _, err := ad.Read(p, lba, 128, nil); err != nil {
					panic(err)
				}
				lba += 128
			}
		})
	}
	end := e.Run()
	return float64(n*perDisk) / end.Seconds() / 1e6, nil
}

// Fig8 reproduces Figure 8: LFS random read and write bandwidth versus
// request size on the 16-disk configuration, a single process issuing
// requests, data moving to/from network buffers in XBUS memory.
func Fig8(sizesKB []int) (*Figure, error) {
	fig := metrics.NewFigure("Figure 8: LFS on RAID-II", "request KB", "MB/s")
	reads := fig.AddSeries("reads")
	writes := fig.AddSeries("writes")

	for _, kb := range sizesKB {
		size := kb << 10

		// Reads: pre-build a large file, then random reads of the given size.
		{
			sys, err := server.New(server.Fig8Config())
			if err != nil {
				return nil, err
			}
			defer sys.Eng.Shutdown()
			attachProbe(fmt.Sprintf("fig8/%dKB/read", kb), sys.Eng)
			b := sys.Boards[0]
			const fileSize = 48 << 20
			var f *server.FSFile
			sys.Eng.Spawn("setup", func(p *sim.Proc) {
				if err := b.FormatFS(p); err != nil {
					panic(err)
				}
				f, err = b.CreateFS(p, "/big")
				if err != nil {
					panic(err)
				}
				buf := make([]byte, 1<<20)
				for off := int64(0); off < fileSize; off += 1 << 20 {
					if _, err := f.File.WriteAt(p, buf, off); err != nil {
						panic(err)
					}
				}
				if err := b.FS.Sync(p); err != nil {
					panic(err)
				}
			})
			sys.Eng.Run()

			total := 24 << 20
			if total < 2*size {
				total = 2 * size
			}
			start := sys.Eng.Now()
			res := workload.FixedOps(sys.Eng, 1, total/size, func(p *sim.Proc, _ int, rng *rand.Rand) int {
				off := workload.RandomAligned(rng, fileSize-int64(size), int64(lfs.BlockSize))
				if _, err := b.FSRead(p, f, off, size); err != nil {
					panic(err)
				}
				return size
			})
			res.Elapsed = sim.Duration(sys.Eng.Now() - start)
			reads.Add(float64(kb), res.MBps())
		}

		// Writes: random writes of the given size into a fresh file space.
		{
			sys, err := server.New(server.Fig8Config())
			if err != nil {
				return nil, err
			}
			defer sys.Eng.Shutdown()
			attachProbe(fmt.Sprintf("fig8/%dKB/write", kb), sys.Eng)
			b := sys.Boards[0]
			var f *server.FSFile
			sys.Eng.Spawn("setup", func(p *sim.Proc) {
				if err := b.FormatFS(p); err != nil {
					panic(err)
				}
				f, err = b.CreateFS(p, "/out")
				if err != nil {
					panic(err)
				}
			})
			sys.Eng.Run()

			const span = 48 << 20
			total := 24 << 20
			if total < 2*size {
				total = 2 * size
			}
			buf := make([]byte, size)
			start := sys.Eng.Now()
			res := workload.FixedOps(sys.Eng, 1, total/size, func(p *sim.Proc, _ int, rng *rand.Rand) int {
				off := workload.RandomAligned(rng, span-int64(size), int64(lfs.BlockSize))
				if err := b.FSWrite(p, f, off, buf); err != nil {
					panic(err)
				}
				return size
			})
			res.Elapsed = sim.Duration(sys.Eng.Now() - start)
			writes.Add(float64(kb), res.MBps())
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
	r, err := server.NewRAIDI(server.DefaultRAIDIConfig())
	if err != nil {
		return out, err
	}
	defer r.Eng.Shutdown()
	attachProbe("raid1/user", r.Eng)
	var cursor int64
	var opErr error
	res := workload.FixedOps(r.Eng, 1, 16, func(p *sim.Proc, _ int, _ *rand.Rand) int {
		const req = 1 << 20
		if err := r.UserRead(p, cursor, req); err != nil && opErr == nil {
			opErr = err
		}
		cursor += int64(req / 512)
		return req
	})
	if opErr != nil {
		return out, opErr
	}
	out.UserReadMBps = res.MBps()

	// One drive streaming without the host in the way.
	r2, err := server.NewRAIDI(server.DefaultRAIDIConfig())
	if err != nil {
		return out, err
	}
	defer r2.Eng.Shutdown()
	attachProbe("raid1/disk", r2.Eng)
	const n = 4 << 20
	var end sim.Time
	r2.Eng.Spawn("d", func(p *sim.Proc) {
		lba := int64(0)
		for read := 0; read < n; read += 128 * 512 {
			if _, err := r2.Disks[0].Read(p, lba, 128, nil); err != nil {
				panic(err)
			}
			lba += 128
		}
		end = p.Now()
	})
	r2.Eng.Run()
	out.SingleDiskMBps = float64(n) / end.Seconds() / 1e6
	return out, nil
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
	sys, err := server.New(server.Fig8Config())
	if err != nil {
		return out, err
	}
	defer sys.Eng.Shutdown()
	attachProbe("client", sys.Eng)
	b := sys.Boards[0]
	ws := client.NewWorkstation(sys, "ss10", host.SPARCstation10())
	const n = 12 << 20
	var readT, writeT sim.Duration
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			panic(err)
		}
		f, err := ws.Create(p, 0, "/net")
		if err != nil {
			panic(err)
		}
		wd, err := f.Write(p, 0, n)
		if err != nil {
			panic(err)
		}
		writeT = wd
		if err := b.FS.Sync(p); err != nil {
			panic(err)
		}
		rd, err := f.Read(p, 0, n)
		if err != nil {
			panic(err)
		}
		readT = rd
	})
	sys.Eng.Run()
	out.ReadMBps = float64(n) / readT.Seconds() / 1e6
	out.WriteMBps = float64(n) / writeT.Seconds() / 1e6
	out.HostCPUUtil = sys.Host.CPU.Utilization()
	return out, nil
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
	{
		sys, err := server.New(server.Fig8Config())
		if err != nil {
			return out, err
		}
		defer sys.Eng.Shutdown()
		attachProbe("recovery/lfs", sys.Eng)
		b := sys.Boards[0]
		var dur sim.Duration
		sys.Eng.Spawn("t", func(p *sim.Proc) {
			if err := b.FormatFS(p); err != nil {
				panic(err)
			}
			buf := make([]byte, 1<<20)
			nFiles := volumeMB / 4
			for i := 0; i < nFiles; i++ {
				f, err := b.FS.Create(p, fmt.Sprintf("/f%04d", i))
				if err != nil {
					panic(err)
				}
				for j := 0; j < 4; j++ {
					if _, err := f.WriteAt(p, buf, int64(j)<<20); err != nil {
						panic(err)
					}
				}
				if i == nFiles/2 {
					if err := b.FS.Checkpoint(p); err != nil { // half the log needs roll-forward
						panic(err)
					}
				}
			}
			if err := b.FS.Sync(p); err != nil {
				panic(err)
			}
			b.FS.Crash()
			start := p.Now()
			fs2, err := lfs.Mount(p, sys.Eng, b.Array)
			if err != nil {
				panic(err)
			}
			rep, err := fs2.Check(p)
			if err != nil {
				panic(err)
			}
			out.LFSConsistent = rep.OK()
			dur = p.Now().Sub(start)
		})
		sys.Eng.Run()
		out.LFSCheck = dur
	}

	// UFS side: same volume of data, then a full fsck.
	{
		sys, err := server.New(server.Fig8Config())
		if err != nil {
			return out, err
		}
		defer sys.Eng.Shutdown()
		attachProbe("recovery/ufs", sys.Eng)
		b := sys.Boards[0]
		var dur sim.Duration
		sys.Eng.Spawn("t", func(p *sim.Proc) {
			fs, err := ufs.Format(p, sys.Eng, b.Array, 4096)
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 1<<20)
			for i := 1; i <= volumeMB/2; i++ {
				if err := fs.Create(p, i); err != nil {
					panic(err)
				}
				for j := 0; j < 2; j++ {
					if _, err := fs.WriteAt(p, i, buf, int64(j)<<20); err != nil {
						panic(err)
					}
				}
			}
			start := p.Now()
			rep, err := fs.Fsck(p)
			if err != nil {
				panic(err)
			}
			out.FsckLeakage = rep.Leaked
			dur = p.Now().Sub(start)
		})
		sys.Eng.Run()
		out.UFSFsck = dur
	}
	return out, nil
}

// Scaling reproduces §2.1.2: aggregate hardware read bandwidth as XBUS
// boards are added to one host.
func Scaling(boardCounts []int) (*Figure, error) {
	fig := metrics.NewFigure("XBUS board scaling", "boards", "MB/s")
	s := fig.AddSeries("aggregate")
	for _, n := range boardCounts {
		cfg := server.DefaultConfig()
		cfg.Boards = n
		sys, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		defer sys.Eng.Shutdown()
		attachProbe(fmt.Sprintf("scaling/%dboards", n), sys.Eng)
		const perBoard = 32 << 20
		g := sim.NewGroup(sys.Eng)
		var opErr error
		for _, b := range sys.Boards {
			b := b
			for w := 0; w < outstanding; w++ {
				w := w
				g.Go("rd", func(p *sim.Proc) {
					var cursor int64 = int64(w) * (perBoard / outstanding) / 512
					for read := 0; read < perBoard/outstanding; read += 1600 << 10 {
						// The host charges per-request control work, which
						// eventually saturates as boards are added.
						sys.Host.CPUWork(p, 2*time.Millisecond)
						if err := b.HardwareRead(p, cursor, 1600<<10); err != nil && opErr == nil {
							opErr = err
						}
						cursor += (1600 << 10) / 512
					}
				})
			}
		}
		end := sys.Eng.Run()
		if opErr != nil {
			return nil, opErr
		}
		s.Add(float64(n), float64(n*perBoard)/end.Seconds()/1e6)
	}
	return fig, nil
}

// Zebra reproduces the §5.2 direction: a client's log striped with parity
// across multiple server hosts, multiplying single-client bandwidth.
func Zebra(serverCounts []int) (*Figure, error) {
	fig := metrics.NewFigure("Zebra striping across servers", "servers", "client MB/s")
	s := fig.AddSeries("striped write")
	for _, n := range serverCounts {
		cfg := server.Fig8Config()
		cfg.Servers = n
		fl, err := server.NewFleet(cfg)
		if err != nil {
			return nil, err
		}
		defer fl.Eng.Shutdown()
		attachProbe(fmt.Sprintf("zebra/%dservers", n), fl.Eng)
		fl.Eng.Spawn("fmt", func(p *sim.Proc) {
			for _, sys := range fl.Servers {
				for _, b := range sys.Boards {
					if err := b.FormatFS(p); err != nil {
						panic(err)
					}
				}
			}
		})
		fl.Eng.Run()
		nic := sim.NewLink(fl.Eng, "client-nic", 100, 0)
		ep := &hippi.Endpoint{Name: "client", Out: nic, In: nic, Setup: 200 * time.Microsecond}
		zcfg := zebra.DefaultConfig()
		zcfg.Parity = n >= 3
		z, err := zebra.New(fl, ep, zcfg)
		if err != nil {
			return nil, err
		}
		const total = 24 << 20
		var dur sim.Duration
		fl.Eng.Spawn("t", func(p *sim.Proc) {
			if err := z.Create(p, "stream"); err != nil {
				panic(err)
			}
			start := p.Now()
			if err := z.Write(p, "stream", 0, make([]byte, total)); err != nil {
				panic(err)
			}
			// The client's data is only stored once the servers' segment
			// writes complete; include that drain (each server syncs
			// independently, in parallel) in the measurement.
			if err := z.SyncAll(p); err != nil {
				panic(err)
			}
			dur = p.Now().Sub(start)
		})
		fl.Eng.Run()
		s.Add(float64(n), float64(total)/dur.Seconds()/1e6)
	}
	return fig, nil
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
	run := func(hostXOR bool) (float64, error) {
		cfg := server.DefaultConfig()
		sys, err := server.New(cfg)
		if err != nil {
			return 0, err
		}
		defer sys.Eng.Shutdown()
		attachProbe(fmt.Sprintf("ablate/parity/hostxor=%v", hostXOR), sys.Eng)
		b := sys.Boards[0]
		if hostXOR {
			swapArrayXOR(sys, b)
		}
		const req = 1472 << 10 // one full stripe
		var cursor int64
		var opErr error
		res := workload.FixedOps(sys.Eng, 2, 24, func(p *sim.Proc, _ int, _ *rand.Rand) int {
			off := cursor
			cursor += int64(req / 512)
			if err := b.HardwareWrite(p, off, req); err != nil && opErr == nil {
				opErr = err
			}
			return req
		})
		return res.MBps(), opErr
	}
	var err error
	if out.With, err = run(false); err != nil {
		return out, err
	}
	if out.Without, err = run(true); err != nil {
		return out, err
	}
	return out, nil
}

// swapArrayXOR rebuilds the board's array with host-software XOR.
func swapArrayXOR(sys *server.System, b *server.Board) {
	b.Array.SetXOR(server.NewHostXOR(sys.Host))
}

// AblationLFSSmallWrites compares LFS against the update-in-place baseline
// on small random writes — the reason RAID-II runs LFS at all.
func AblationLFSSmallWrites() (AblationResult, error) {
	out := AblationResult{Name: "LFS log batching", Unit: "4KB random write IOPS",
		Comment: "update-in-place pays the RAID-5 four-access small-write penalty"}

	// LFS.
	{
		sys, err := server.New(server.Fig8Config())
		if err != nil {
			return out, err
		}
		defer sys.Eng.Shutdown()
		attachProbe("ablate/smallwrites/lfs", sys.Eng)
		b := sys.Boards[0]
		var f *server.FSFile
		sys.Eng.Spawn("setup", func(p *sim.Proc) {
			if err := b.FormatFS(p); err != nil {
				panic(err)
			}
			f, err = b.CreateFS(p, "/small")
			if err != nil {
				panic(err)
			}
			if _, err := f.File.WriteAt(p, make([]byte, 2<<20), 0); err != nil {
				panic(err)
			}
			if err := b.FS.Sync(p); err != nil {
				panic(err)
			}
		})
		sys.Eng.Run()
		buf := make([]byte, 4096)
		start := sys.Eng.Now()
		res := workload.FixedOps(sys.Eng, 1, 400, func(p *sim.Proc, _ int, rng *rand.Rand) int {
			off := workload.RandomAligned(rng, 2<<20-4096, 4096)
			if err := b.FSWrite(p, f, off, buf); err != nil {
				panic(err)
			}
			return 4096
		})
		res.Elapsed = sim.Duration(sys.Eng.Now() - start)
		out.With = res.IOPS()
	}
	// UFS on the same array geometry.
	{
		sys, err := server.New(server.Fig8Config())
		if err != nil {
			return out, err
		}
		defer sys.Eng.Shutdown()
		attachProbe("ablate/smallwrites/ufs", sys.Eng)
		b := sys.Boards[0]
		var fs *ufs.FS
		sys.Eng.Spawn("setup", func(p *sim.Proc) {
			fs, err = ufs.Format(p, sys.Eng, b.Array, 64)
			if err != nil {
				panic(err)
			}
			if err := fs.Create(p, 1); err != nil {
				panic(err)
			}
			if _, err := fs.WriteAt(p, 1, make([]byte, 2<<20), 0); err != nil {
				panic(err)
			}
		})
		sys.Eng.Run()
		buf := make([]byte, 4096)
		start := sys.Eng.Now()
		res := workload.FixedOps(sys.Eng, 1, 400, func(p *sim.Proc, _ int, rng *rand.Rand) int {
			off := workload.RandomAligned(rng, 2<<20-4096, 4096)
			sys.Host.CPUWork(p, 3*time.Millisecond)
			if _, err := fs.WriteAt(p, 1, buf, off); err != nil {
				panic(err)
			}
			return 4096
		})
		res.Elapsed = sim.Duration(sys.Eng.Now() - start)
		out.Without = res.IOPS()
	}
	return out, nil
}

// AblationTwoPaths compares a large read over the high-bandwidth HIPPI
// path against the same read forced through the host and Ethernet — the
// architectural thesis of the paper.
func AblationTwoPaths() (AblationResult, error) {
	out := AblationResult{Name: "separate high-bandwidth data path", Unit: "MB/s large file read",
		Comment: "standard mode drags data through the Sun 4/280 and 10 Mb/s Ethernet"}
	sys, err := server.New(server.Fig8Config())
	if err != nil {
		return out, err
	}
	defer sys.Eng.Shutdown()
	attachProbe("ablate/twopaths", sys.Eng)
	b := sys.Boards[0]
	const n = 8 << 20
	sys.Eng.Spawn("t", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			panic(err)
		}
		f, err := b.CreateFS(p, "/big")
		if err != nil {
			panic(err)
		}
		if _, err := f.File.WriteAt(p, make([]byte, n), 0); err != nil {
			panic(err)
		}
		if err := b.FS.Sync(p); err != nil {
			panic(err)
		}
		start := p.Now()
		if _, err := b.FSRead(p, f, 0, n); err != nil {
			panic(err)
		}
		out.With = float64(n) / p.Now().Sub(start).Seconds() / 1e6
		start = p.Now()
		if err := b.EtherRead(p, f, 0, n); err != nil {
			panic(err)
		}
		out.Without = float64(n) / p.Now().Sub(start).Seconds() / 1e6
	})
	sys.Eng.Run()
	return out, nil
}

// AblationStripeUnit sweeps the striping unit for 1 MB hardware random
// reads, one of the design parameters §2.2 fixes at 64 KB.
func AblationStripeUnit(unitsKB []int) (*Figure, error) {
	fig := metrics.NewFigure("Stripe unit sweep (1 MB random reads)", "unit KB", "MB/s")
	s := fig.AddSeries("reads")
	for _, kb := range unitsKB {
		cfg := server.DefaultConfig()
		cfg.StripeUnitSectors = kb * 2
		sys, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		defer sys.Eng.Shutdown()
		attachProbe(fmt.Sprintf("ablate/stripeunit/%dKB", kb), sys.Eng)
		b := sys.Boards[0]
		space := b.Array.Sectors()
		const size = 1 << 20
		var opErr error
		res := workload.FixedOps(sys.Eng, outstanding, 24, func(p *sim.Proc, _ int, rng *rand.Rand) int {
			align := int64(size / 512)
			off := workload.RandomAligned(rng, space-align, align)
			if err := b.HardwareRead(p, off, size); err != nil && opErr == nil {
				opErr = err
			}
			return size
		})
		if opErr != nil {
			return nil, opErr
		}
		s.Add(float64(kb), res.MBps())
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

// Rebuild measures large-read bandwidth on the healthy array, fails one
// disk and measures degraded reads (every access to the lost column fans
// out to all surviving disks plus parity), then reconstructs onto a spare
// and reports the rebuild rate.
func Rebuild() (RebuildResult, error) {
	var out RebuildResult
	sys, err := server.New(server.Fig8Config())
	if err != nil {
		return out, err
	}
	defer sys.Eng.Shutdown()
	attachProbe("rebuild", sys.Eng)
	b := sys.Boards[0]
	space := b.Array.Sectors()

	measure := func() (float64, error) {
		start := sys.Eng.Now()
		var opErr error
		res := workload.FixedOps(sys.Eng, outstanding, 24, func(p *sim.Proc, _ int, rng *rand.Rand) int {
			const size = 1 << 20
			align := int64(size / 512)
			off := workload.RandomAligned(rng, space-align, align)
			if err := b.HardwareRead(p, off, size); err != nil && opErr == nil {
				opErr = err
			}
			return size
		})
		res.Elapsed = sim.Duration(sys.Eng.Now() - start)
		return res.MBps(), opErr
	}

	if out.NormalReadMBps, err = measure(); err != nil {
		return out, err
	}
	if err := b.Array.FailDisk(3); err != nil {
		return out, err
	}
	if out.DegradedReadMBps, err = measure(); err != nil {
		return out, err
	}

	spare, err := b.AttachSpare(0, 0)
	if err != nil {
		return out, err
	}
	var stripes int64
	start := sys.Eng.Now()
	sys.Eng.Spawn("rebuild", func(p *sim.Proc) {
		var err error
		stripes, err = b.Array.Reconstruct(p, 3, spare)
		if err != nil {
			panic(err)
		}
	})
	end := sys.Eng.Run()
	out.RebuildDuration = time.Duration(end - start)
	rebuilt := float64(stripes) * float64(b.Array.StripeUnitSectors()) * 512
	out.RebuildMBps = rebuilt / out.RebuildDuration.Seconds() / 1e6
	return out, nil
}

// AblationDiskScheduler compares actuator scheduling policies on the
// Table 2 workload at higher per-disk queue depth (where policy matters).
func AblationDiskScheduler() (AblationResult, error) {
	out := AblationResult{Name: "SSTF disk scheduling", Unit: "4KB random read IOPS (4 disks, qdepth 4)",
		Comment: "the 1993 drive firmware serviced FIFO; seek-aware scheduling helps queued small I/O"}
	run := func(policy disk.SchedPolicy) (float64, error) {
		cfg := server.DefaultConfig()
		cfg.DiskSched = policy
		sys, err := server.New(cfg)
		if err != nil {
			return 0, err
		}
		defer sys.Eng.Shutdown()
		attachProbe(fmt.Sprintf("ablate/sched/%v", policy), sys.Eng)
		b := sys.Boards[0]
		space := b.Disks[0].Sectors() - 8
		// 16 workers over 4 disks: queue depth ~4 per actuator.
		res := workload.ClosedLoop(sys.Eng, 16, sim.Time(3e9), func(p *sim.Proc, w int, rng *rand.Rand) int {
			if err := b.SmallDiskRead(p, w%4, workload.RandomAligned(rng, space, 8), 4096); err != nil {
				panic(err)
			}
			return 4096
		})
		return res.IOPS(), nil
	}
	var err error
	if out.With, err = run(disk.SchedSSTF); err != nil {
		return out, err
	}
	if out.Without, err = run(disk.SchedFIFO); err != nil {
		return out, err
	}
	return out, nil
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
	sys, err := server.New(cfg)
	if err != nil {
		return out, err
	}
	defer sys.Eng.Shutdown()
	attachProbe("fileserver", sys.Eng)
	telemetry.Attach(sys.Eng)
	b := sys.Boards[0]
	tr := workload.NewTrace(workload.DefaultTraceConfig())

	// Populate.
	sys.Eng.Spawn("setup", func(p *sim.Proc) {
		if err := b.FormatFS(p); err != nil {
			panic(err)
		}
		if err := b.FS.Mkdir(p, "/srv"); err != nil {
			panic(err)
		}
		for i := 0; i < tr.Files(); i++ {
			f, err := b.FS.Create(p, tr.PathOf(i))
			if err != nil {
				panic(err)
			}
			if _, err := f.WriteAt(p, make([]byte, tr.SizeOf(i)), 0); err != nil {
				panic(err)
			}
		}
		if err := b.FS.Checkpoint(p); err != nil {
			panic(err)
		}
	})
	sys.Eng.Run()

	var readLat, writeLat metrics.Latencies
	start := sys.Eng.Now()
	sys.Eng.Spawn("trace", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			op := tr.Next()
			t0 := p.Now()
			switch op.Kind {
			case "read":
				f, err := b.OpenFS(p, op.Path)
				if err != nil {
					panic(err)
				}
				if _, err := b.FSRead(p, f, op.Off, op.Size); err != nil {
					panic(err)
				}
				readLat.Add(p.Now().Sub(t0))
			case "write":
				f, err := b.OpenFS(p, op.Path)
				if err != nil {
					panic(err)
				}
				if err := b.FSWrite(p, f, op.Off, make([]byte, op.Size)); err != nil {
					panic(err)
				}
				writeLat.Add(p.Now().Sub(t0))
			case "create":
				f, err := b.CreateFS(p, op.Path)
				if err != nil {
					panic(err)
				}
				if err := b.FSWrite(p, f, 0, make([]byte, op.Size)); err != nil {
					panic(err)
				}
			case "remove":
				if err := b.FS.Remove(p, op.Path); err != nil {
					panic(err)
				}
			}
			out.Ops++
		}
		if err := b.FS.Sync(p); err != nil {
			panic(err)
		}
	})
	end := sys.Eng.Run()
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
	sys.Eng.Spawn("reread", func(p *sim.Proc) {
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
				panic(err)
			}
			if _, err := b.FSRead(p, f, 0, tr.SizeOf(i)); err != nil {
				panic(err)
			}
			reBytes += uint64(tr.SizeOf(i))
		}
	})
	reEnd := sys.Eng.Run()
	if s := reEnd.Sub(reStart).Seconds(); s > 0 {
		out.ReReadMBps = float64(reBytes) / s / 1e6
	}
	if b.Cache != nil {
		st := b.Cache.Stats()
		out.CacheHits, out.CacheMisses = st.Hits, st.Misses
	}
	out.ReadLatency = latencyStats(sys.Eng, "fs-read")
	out.WriteLatency = latencyStats(sys.Eng, "fs-write")

	sys.Eng.Spawn("check", func(p *sim.Proc) {
		rep, err := b.FS.Check(p)
		if err != nil {
			panic(err)
		}
		out.FSConsistent = rep.OK()
	})
	sys.Eng.Run()
	return out, nil
}
