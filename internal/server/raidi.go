package server

import (
	"fmt"

	"raidii/internal/disk"
	"raidii/internal/host"
	"raidii/internal/raid"
	"raidii/internal/scsi"
	"raidii/internal/sim"
)

// RAIDI models the first Berkeley prototype: a Sun 4/280 with four
// dual-string SCSI controllers and Wren IV disks, where *all* data passes
// through host memory.  "RAID-I proved woefully inadequate at providing
// high-bandwidth I/O, sustaining at best 2.3 megabytes/second to a
// user-level application."
type RAIDI struct {
	Eng     *sim.Engine
	Host    *host.Host
	Cougars []*scsi.Controller
	Disks   []*scsi.Bound // every transfer DMAs across the VME backplane into host memory
	Array   *raid.Array
}

// RAIDIConfig assembles the baseline.
type RAIDIConfig struct {
	Controllers    int
	DisksPerString int
	DiskSpec       disk.Spec
	Level          raid.Level
	StripeUnit     int // sectors
}

// DefaultRAIDIConfig returns the prototype as built in 1989: 5.25-inch
// Wren IV drives behind four dual-string controllers.
func DefaultRAIDIConfig() RAIDIConfig {
	return RAIDIConfig{
		Controllers:    4,
		DisksPerString: 3,
		DiskSpec:       disk.WrenIV(),
		Level:          raid.Level5,
		StripeUnit:     (64 << 10) / 512,
	}
}

// NewRAIDI assembles the baseline on a fresh engine.
func NewRAIDI(cfg RAIDIConfig) (*RAIDI, error) {
	e := sim.New()
	r := &RAIDI{Eng: e, Host: host.New(e, host.Sun4280())}
	var devs []raid.Dev
	n := 0
	up, down := sim.Path{r.Host.Backplane, r.Host.MemBus}, sim.Path{r.Host.MemBus, r.Host.Backplane}
	for c := 0; c < cfg.Controllers; c++ {
		ctl := scsi.NewController(e, fmt.Sprintf("raidi-ctl%d", c), scsi.DefaultConfig())
		r.Cougars = append(r.Cougars, ctl)
		for s := 0; s < 2; s++ {
			for d := 0; d < cfg.DisksPerString; d++ {
				dr, err := disk.New(e, fmt.Sprintf("raidi-d%d", n), cfg.DiskSpec)
				if err != nil {
					return nil, err
				}
				bd := ctl.Attach(dr, s).Bind(up, down)
				r.Disks = append(r.Disks, bd)
				devs = append(devs, bd)
				n++
			}
		}
	}
	// Parity computed in host software: the XOR bytes cross the memory bus.
	arr, err := raid.New(e, devs, raid.Config{Level: cfg.Level, StripeUnitSectors: cfg.StripeUnit}, &hostXOR{h: r.Host})
	if err != nil {
		return nil, err
	}
	r.Array = arr
	return r, nil
}

// hostXOR computes parity on the host CPU: each byte is read and written
// through the memory system, and the CPU is busy for the duration.
type hostXOR struct{ h *host.Host }

func (x *hostXOR) XORTo(p *sim.Proc, dst []byte, srcs ...[]byte) {
	total := len(dst) // the result is written back
	for _, s := range srcs {
		total += len(s)
	}
	x.h.CPUTransfer(p, total)
	raid.SoftXOR{}.XORTo(p, dst, srcs...)
}

func (x *hostXOR) XORInto(p *sim.Proc, dst, src []byte) {
	x.h.CPUTransfer(p, 2*len(src))
	raid.SoftXOR{}.XORInto(p, dst, src)
}

// Fold and Result charge a folded computation what XORTo charges the same
// computation: each source read once as it folds, the result written once.
func (x *hostXOR) Fold(p *sim.Proc, acc, src []byte) {
	x.h.CPUTransfer(p, len(src))
	raid.SoftXOR{}.XORInto(p, acc, src)
}

func (x *hostXOR) Result(p *sim.Proc, n int) { x.h.CPUTransfer(p, n) }

// UserRead moves size bytes from the array to a user-level application
// buffer: DMA into kernel memory (part of the array read path), then a
// kernel-to-user copy with its cache interference.  Chunks pipeline so the
// measured rate reflects the memory system's steady state.
func (r *RAIDI) UserRead(p *sim.Proc, offSectors int64, size int) error {
	secSize := r.Array.SectorSize()
	g := p.Fork()
	sem := sim.NewServer(r.Eng, "raidi-pipe", 2)
	cursor := offSectors
	const chunk = 256 << 10
	for rem := size; rem > 0; {
		n := chunk
		if n > rem {
			n = rem
		}
		rem -= n
		secs := (n + secSize - 1) / secSize
		at := cursor
		cursor += int64(secs)
		sem.Acquire(p)
		g.Go("raidi-chunk", func(q *sim.Proc) error {
			defer sem.Release()
			// DMA path: backplane + memory bus.
			_, err := r.Array.Read(q, at, secs)
			r.Host.CopyAsync(q, n) // kernel -> user copy + cache traffic
			return err
		})
	}
	err := g.Wait(p)
	r.Host.PerIO(p)
	return err
}

// SmallDiskRead is RAID-I's Table 2 unit of work: a 4 KB read from one
// disk, DMA into host memory, a copy to user space, and the host's
// (heavier) per-I/O completion cost.
func (r *RAIDI) SmallDiskRead(p *sim.Proc, diskIdx int, lba int64, bytes int) error {
	bd := r.Disks[diskIdx]
	secs := (bytes + bd.SectorSize() - 1) / bd.SectorSize()
	if _, err := bd.Read(p, lba, secs); err != nil {
		return err
	}
	r.Host.Copy(p, bytes)
	r.Host.PerIO(p)
	return nil
}

// NewHostXOR returns a parity engine that computes XOR on the given host
// workstation, charging its CPU and memory system — how RAID-I did parity,
// and the ablation counterpart of the XBUS parity port.
func NewHostXOR(h *host.Host) raid.XOREngine { return &hostXOR{h: h} }
