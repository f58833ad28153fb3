// Package xbus models the custom crossbar disk-array controller board at
// the heart of RAID-II.  The board implements a 4x8, 32-bit crossbar (the
// XBUS) connecting four interleaved memory modules to eight ports: two
// HIPPI network interfaces (source and destination), four VME interfaces to
// Cougar disk controller boards, a parity computation engine, and a VME
// link to the host workstation.  Each port was designed for 40 MB/s (80 ns
// cycles, 32 bits) for 160 MB/s of aggregate crossbar bandwidth; the VME
// disk ports achieve only 6.9 MB/s reading and 5.9 MB/s writing, which the
// paper identifies (with the Cougar strings) as the hardware bottleneck.
package xbus

import (
	"fmt"
	"time"

	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// Config carries the calibrated XBUS board parameters.
type Config struct {
	PortMBps       float64 // crossbar port bandwidth (HIPPI, parity ports)
	MemoryModules  int
	ModuleMBps     float64 // per memory module
	MemoryBytes    int     // total board DRAM
	VMEDiskPorts   int
	VMEReadMBps    float64 // disk port, disk -> memory direction
	VMEWriteMBps   float64 // disk port, memory -> disk direction
	HostVMEMBps    float64 // control link to the host workstation
	HostVMELatency time.Duration
}

// DefaultConfig returns the paper-calibrated board.
func DefaultConfig() Config {
	return Config{
		PortMBps:       40,
		MemoryModules:  4,
		ModuleMBps:     40,
		MemoryBytes:    32 << 20, // 4 x 8 MB DRAM
		VMEDiskPorts:   4,
		VMEReadMBps:    6.9,
		VMEWriteMBps:   5.9,
		HostVMEMBps:    8,
		HostVMELatency: 50 * time.Microsecond,
	}
}

// Port is one crossbar port with possibly direction-dependent bandwidth.
// The port is half-duplex: its two directions are links on one server, so
// transfers either way contend for it in FIFO order.  Every port transfer
// also crosses the memory system.
type Port struct {
	in, out sim.Hop // a sim.Route: the port's link that way, then memory
}

// In returns the hop for data flowing into XBUS memory through this port.
func (pt *Port) In() sim.Hop { return pt.in }

// Out returns the hop for data flowing out of XBUS memory through this port.
func (pt *Port) Out() sim.Hop { return pt.out }

// BytesMoved reports the total bytes through the port.
func (pt *Port) BytesMoved() uint64 {
	return pt.in.Links()[0].BytesMoved() + pt.out.Links()[0].BytesMoved()
}

// Board is one XBUS controller board.
type Board struct {
	Cfg Config

	// Memory is the crossbar/memory system: four modules interleaved in
	// sixteen-word blocks, modelled as an aggregate link since the fine
	// interleave spreads every transfer across all modules evenly.
	Memory *sim.Link

	HIPPIS *Port // to the HIPPI source board (memory -> network)
	HIPPID *Port // from the HIPPI destination board (network -> memory)
	Parity *Port // parity computation engine
	VME    []*Port
	Host   *Port // control/metadata link to the host workstation

	// Buffers is the board DRAM as a server of bytes.  What draws units:
	// the chunk buffers of the hardware and file-system read and write
	// pipelines, the client path's HIPPI network buffers, and the permanent
	// carve-outs of ReserveMemory (block cache, NVRAM).  LFS's segment
	// images live in the NVRAM carve-out when there is one; otherwise they
	// are not drawn from here — the file system does not know its board —
	// but are a fixed pool sized against the same 32 MB (six 960 KB images,
	// DESIGN.md §17).
	Buffers *sim.Server

	parityOps uint64
}

// New creates a board attached to engine e.
func New(e *sim.Engine, name string, cfg Config) *Board {
	mem := sim.NewLink(e, name+":mem", cfg.ModuleMBps*float64(cfg.MemoryModules), 0)
	port := func(pn string, in, out float64) *Port {
		srv := sim.NewServer(e, name+":"+pn, 1)
		return &Port{in: sim.Route{srv.Link(in, 0), mem}, out: sim.Route{srv.Link(out, 0), mem}}
	}
	b := &Board{
		Cfg:     cfg,
		Memory:  mem,
		HIPPIS:  port("hippis", cfg.PortMBps, cfg.PortMBps),
		HIPPID:  port("hippid", cfg.PortMBps, cfg.PortMBps),
		Parity:  port("xor", cfg.PortMBps, cfg.PortMBps),
		Host:    port("host", cfg.HostVMEMBps, cfg.HostVMEMBps),
		Buffers: sim.NewServer(e, name+":dram", cfg.MemoryBytes),
	}
	for i := 0; i < cfg.VMEDiskPorts; i++ {
		// Each VME disk port is a distinct piece of hardware; unique names
		// keep them as separate rows in utilization accounting.
		b.VME = append(b.VME, port(fmt.Sprintf("vme%d", i), cfg.VMEReadMBps, cfg.VMEWriteMBps))
	}
	return b
}

// MinTransferBytes is the floor of board DRAM that must stay available for
// transfer, pipeline and network buffers after any permanent carve-out.
// Two megabytes covers the deepest configured pipeline (8 x 256 KB).
const MinTransferBytes = 2 << 20

// ReserveMemory permanently carves n bytes of the board's DRAM out of the
// transfer-buffer pool — the block cache's capacity.  Cache lines and
// transfer buffers share the 32 MB honestly: a reservation that would
// leave fewer than MinTransferBytes for transfers fails.
func (b *Board) ReserveMemory(n int) error {
	if n <= 0 {
		return fmt.Errorf("xbus: memory reservation of %d bytes", n)
	}
	if b.Buffers.Available()-n < MinTransferBytes {
		return fmt.Errorf("xbus: reserving %d bytes leaves %d of %d for transfer buffers (floor %d)",
			n, b.Buffers.Available()-n, b.Cfg.MemoryBytes, MinTransferBytes)
	}
	return b.Buffers.Reserve(n)
}

// DiskReadPath returns the upstream path for data arriving from a Cougar on
// VME disk port i into XBUS memory.
func (b *Board) DiskReadPath(i int) sim.Path { return sim.Path{b.VME[i].In()} }

// DiskWritePath returns the upstream path for data leaving XBUS memory
// toward a Cougar on VME disk port i.
func (b *Board) DiskWritePath(i int) sim.Path { return sim.Path{b.VME[i].Out()} }

// XOR computes the bytewise parity of the sources into a new buffer; see
// XORTo.
func (b *Board) XOR(p *sim.Proc, srcs ...[]byte) []byte {
	if len(srcs) == 0 {
		return nil
	}
	out := make([]byte, len(srcs[0]))
	b.XORTo(p, out, srcs...)
	return out
}

// XORTo computes the bytewise parity of one or more sources into the
// caller's dst (overwriting it), using the board's parity engine: every source byte
// streams from memory through the XOR port, and the result streams back.
// The sources and dst must all be the same length, and dst must not
// overlap a source.
func (b *Board) XORTo(p *sim.Proc, dst []byte, srcs ...[]byte) {
	n := len(dst)
	for _, s := range srcs {
		if len(s) != n {
			//lint:allow simpanic stripe geometry guarantees equal-length columns; unequal lengths mean a corrupted extent computation
			panic("xbus: XOR sources of unequal length")
		}
	}
	end := p.Span("xbus", "parity")
	for i, s := range srcs {
		// Stream this source through the parity engine.
		sim.Path{b.Parity.In()}.Send(p, n, 0)
		if i == 0 {
			copy(dst, s)
		} else {
			bytepath.XOR(dst, s)
		}
	}
	// Result writes back to memory.
	sim.Path{b.Parity.Out()}.Send(p, n, 0)
	b.parityOps++
	end()
}

// XORInto accumulates src into dst (dst ^= src) with parity-engine timing:
// a computation of one source, its result already in place.
func (b *Board) XORInto(p *sim.Proc, dst, src []byte) {
	b.Fold(p, dst, src)
	b.parityOps++
}

// Fold accumulates src into acc (acc ^= src) as one source of a computation
// assembled a source at a time: src streams through the parity engine, and
// the computation is counted once, by its Result.
func (b *Board) Fold(p *sim.Proc, acc, src []byte) {
	end := p.Span("xbus", "parity")
	sim.Path{b.Parity.In()}.Send(p, len(src), 0)
	bytepath.XOR(acc, src)
	end()
}

// Result streams a folded computation's n-byte result back to memory and
// counts the computation.
func (b *Board) Result(p *sim.Proc, n int) {
	end := p.Span("xbus", "parity")
	sim.Path{b.Parity.Out()}.Send(p, n, 0)
	b.parityOps++
	end()
}

// ParityOps reports how many parity computations the engine has run: an
// XORTo, an XORInto, or a folded computation however many sources it took.
func (b *Board) ParityOps() uint64 { return b.parityOps }

// HostTransfer moves n bytes between XBUS memory and host memory over the
// board's host VME port (the low-bandwidth data path).  The caller layers
// host-side memory costs on top.
func (b *Board) HostTransfer(p *sim.Proc, n int, toHost bool) {
	hop := b.Host.In()
	if toHost {
		hop = b.Host.Out()
	}
	sim.Path{hop}.Send(p, n, 0)
}
