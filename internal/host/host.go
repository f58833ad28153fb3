// Package host models the server's host workstation — a Sun 4/280 in the
// prototype — whose memory system is the reason RAID-II exists.  The paper:
// "The copy operations that move data between kernel DMA buffers and
// buffers in user space saturate the memory system when I/O bandwidth
// reaches 2.3 megabytes/second ... high-bandwidth performance is also
// restricted by the low backplane bandwidth of the Sun 4/280's system bus,
// which becomes saturated at 9 megabytes/second."
//
// The model has three contended resources: the CPU (a serial server that
// pays per-I/O driver and context-switch costs and executes programmed
// copies), the memory bus (every DMA byte crosses it once, every copied
// byte twice, and cache interference adds another crossing), and the VME
// backplane.
package host

import (
	"time"

	"raidii/internal/sim"
)

// Config describes a workstation model.
type Config struct {
	Name string
	// MemBusMBps is the effective memory-system bandwidth in
	// crossings/second: the rate at which bytes can enter or leave DRAM.
	MemBusMBps float64
	// BackplaneMBps is the VME system bus bandwidth.
	BackplaneMBps float64
	// PerIOOverhead is CPU time per I/O operation: driver execution and
	// the context switches the paper blames for the small-I/O ceiling on
	// both prototypes.
	PerIOOverhead time.Duration
	// CopyCrossings is memory crossings per byte for a programmed copy
	// (read + write, plus cache-flush interference on the virtually
	// addressed Sun 4/280 cache).
	CopyCrossings int
	// DMACrossings is memory crossings per byte for device DMA.
	DMACrossings int
}

// Sun4280 returns the RAID-II/RAID-I host workstation, calibrated so that a
// DMA + copy-out + cache-interference path saturates at the paper's 2.3
// MB/s and small-I/O rates land at Table 2's 275 (RAID-I) and 422 (RAID-II)
// operations per second for fifteen disks.
func Sun4280() Config {
	return Config{
		Name:          "Sun4/280",
		MemBusMBps:    9.2,
		BackplaneMBps: 9.0,
		PerIOOverhead: 2300 * time.Microsecond,
		CopyCrossings: 3, // read + write + cache interference
		DMACrossings:  1,
	}
}

// Sun4280RAIDII returns the host model as used by RAID-II, where the
// per-I/O host cost is lower because completions do not move data through
// host memory (Table 2: RAID-II "delivers a higher percentage (78%) of the
// potential I/O rate from its fifteen disks than does RAID-I (67%)").
func Sun4280RAIDII() Config {
	c := Sun4280()
	c.PerIOOverhead = 2370 * time.Microsecond
	return c
}

// SPARCstation10 returns the client workstation of §3.4, whose "user-level
// network interface implementation performs many copy operations", limiting
// a single client to about 3.1-3.2 MB/s.
func SPARCstation10() Config {
	return Config{
		Name:          "SPARCstation10/51",
		MemBusMBps:    10.5,
		BackplaneMBps: 25,
		PerIOOverhead: 500 * time.Microsecond,
		CopyCrossings: 3,
		DMACrossings:  1,
	}
}

// Host is a workstation instance.  The CPU is held only through Host's
// methods, which sum the time it is held: CPUHeld is what a caller asking
// how busy the host was reads, with or without a tracer attached.
type Host struct {
	Cfg       Config
	MemBus    *sim.Link
	Backplane *sim.Link

	cpu  *sim.Server
	held sim.Duration
}

// New creates a workstation on engine e.
func New(e *sim.Engine, cfg Config) *Host {
	return &Host{
		Cfg:       cfg,
		cpu:       sim.NewServer(e, cfg.Name+":cpu", 1),
		MemBus:    sim.NewLink(e, cfg.Name+":membus", cfg.MemBusMBps, 0),
		Backplane: sim.NewLink(e, cfg.Name+":vme", cfg.BackplaneMBps, 0),
	}
}

// PerIO charges the fixed CPU cost of completing one I/O.
func (h *Host) PerIO(p *sim.Proc) {
	h.CPUWork(p, h.Cfg.PerIOOverhead)
}

// CPUWork charges d of CPU time (file system code, name lookup, etc.).
func (h *Host) CPUWork(p *sim.Proc, d time.Duration) {
	h.cpu.Acquire(p)
	p.Wait(d)
	h.held += d
	h.cpu.Release()
}

// CPUTransfer holds the CPU while n bytes cross the memory bus: a
// programmed copy, or parity computed in host software.
func (h *Host) CPUTransfer(p *sim.Proc, n int) {
	h.cpu.Acquire(p)
	start := p.Now()
	h.MemBus.Transfer(p, n)
	h.held += p.Now().Sub(start)
	h.cpu.Release()
}

// CPUHeld reports the total simulated time the CPU has been held.
func (h *Host) CPUHeld() sim.Duration { return h.held }

// DMAIn models a device writing n bytes into host memory: the bytes cross
// the backplane and then the memory bus.
func (h *Host) DMAIn(p *sim.Proc, n int) {
	sim.Path{h.Backplane, h.MemBus}.Send(p, n*h.Cfg.DMACrossings, 0)
}

// Copy models a programmed kernel<->user copy of n bytes: the CPU is busy
// for the duration and the bytes make CopyCrossings memory crossings.
func (h *Host) Copy(p *sim.Proc, n int) {
	h.CPUTransfer(p, n*h.Cfg.CopyCrossings)
}

// CopyAsync is Copy without holding the CPU serially for the whole
// transfer, for chunked overlapped copies where the caller manages CPU
// accounting itself.
func (h *Host) CopyAsync(p *sim.Proc, n int) {
	sim.Path{h.MemBus}.Send(p, n*h.Cfg.CopyCrossings, 0)
}
