package server

import (
	"fmt"

	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// This file implements the board's data movement operations.
//
// High-bandwidth-path transfers pipeline the disk array against the HIPPI
// network through XBUS memory buffers: "For read operations, while one
// block of data is being sent across the network, the next blocks are
// being read off the disk."

// readDev issues an array read, through the block cache when the board has
// one: resident lines are served from XBUS DRAM at crossbar cost, missing
// lines fill from the array at full disk cost.
func (b *Board) readDev(p *sim.Proc, at int64, secs int) error {
	if b.Cache != nil {
		_, err := b.Cache.Read(p, at, secs)
		return err
	}
	_, err := b.Array.Read(p, at, secs)
	return err
}

// writeDevStreaming issues a benchmark-mode streaming write, keeping the
// block cache coherent (and staging freshly written lines) when present.
func (b *Board) writeDevStreaming(p *sim.Proc, at int64, data []byte) error {
	if b.Cache != nil {
		return b.Cache.WriteStreaming(p, at, data)
	}
	return b.Array.WriteStreaming(p, at, data)
}

// Chunks splits a transfer of size bytes into pipeline-buffer-sized work
// items, the last one short.
func Chunks(size int) []int {
	var out []int
	for ; size > 0; size -= pipelineChunk {
		out = append(out, min(pipelineChunk, size))
	}
	return out
}

// stripeAligned splits [offSectors, offSectors+sizeSecs) into pieces that
// do not straddle stripe boundaries unnecessarily: whole stripes become
// single pieces, so the array's full-stripe write path applies wherever
// possible.
func (b *Board) stripeAligned(offSectors int64, sizeSecs int) []int {
	rowSecs := b.Array.StripeUnitSectors() * b.Array.DataDisks()
	var out []int
	for sizeSecs > 0 {
		inRow := int(int64(rowSecs) - offSectors%int64(rowSecs))
		n := inRow
		if n > sizeSecs {
			n = sizeSecs
		}
		out = append(out, n)
		offSectors += int64(n)
		sizeSecs -= n
	}
	return out
}

// HardwareRead performs the Figure 5 hardware system-level read: data are
// read from the disk array into XBUS memory, sent over the HIPPI source
// board, looped back through the HIPPI destination board, and land in XBUS
// memory again.  All of the request's disk reads are issued at once
// (bounded by XBUS buffer memory); the HIPPI transmits each chunk as soon
// as it and all earlier chunks have arrived in memory.  When the board has
// too little free memory for the next chunk, the issuer sends the chunks it
// holds before it waits, since only its own sends give their bytes back.
func (b *Board) HardwareRead(p *sim.Proc, offSectors int64, size int) (err error) {
	defer telemetry.Ensure(p, "hw-read")(&err)
	e := b.sys.Eng
	secSize := b.Array.SectorSize()
	chunks := Chunks(size)
	ready := make([]*sim.Event, len(chunks))
	g := p.Fork()
	// Network side: one HIPPI packet for the request, chunks in order.
	setup, sent := false, 0
	send := func() {
		if !setup {
			p.Wait(b.HEP.Setup)
			setup = true
		}
		ready[sent].Wait(p)
		sim.Path{b.HEP.Out, b.HEP.In}.Send(p, chunks[sent], 0)
		b.XB.Buffers.Release(chunks[sent])
		sent++
	}
	cursor := offSectors
	for i, n := range chunks {
		secs := (n + secSize - 1) / secSize
		at := cursor
		cursor += int64(secs)
		ready[i] = sim.NewEvent(e)
		for !b.XB.Buffers.TryAcquire(p, n) {
			if sent == i { // nothing of ours to send: wait for others' bytes
				b.XB.Buffers.Acquire(p, n)
				break
			}
			send()
		}
		g.Go("hw-read-disk", func(q *sim.Proc) error {
			err := b.readDev(q, at, secs)
			ready[i].Signal()
			return err
		})
	}
	for sent < len(chunks) {
		send()
	}
	return g.Wait(p) // every worker has signalled: no wait, the first error
}

// HardwareWrite performs the Figure 5 write: data originate in XBUS
// memory, loop over the HIPPI, return to XBUS memory, then parity is
// computed and data and parity are written to the array.  Disk writes are
// issued stripe-aligned as their data arrive, so whole stripes take the
// full-stripe parity path while the HIPPI keeps streaming.
func (b *Board) HardwareWrite(p *sim.Proc, offSectors int64, size int) (err error) {
	defer telemetry.Ensure(p, "hw-write")(&err)
	secSize := b.Array.SectorSize()
	g := p.Fork()

	p.Wait(b.HEP.Setup)
	cursor := offSectors
	for _, secs := range b.stripeAligned(offSectors, (size+secSize-1)/secSize) {
		n := secs * secSize
		at := cursor
		cursor += int64(secs)
		b.XB.Buffers.Acquire(p, n)
		sim.Path{b.HEP.Out, b.HEP.In}.Send(p, n, 0)
		g.Go("hw-write-disk", func(q *sim.Proc) error {
			err := b.writeDevStreaming(q, at, make([]byte, secs*secSize))
			b.XB.Buffers.Release(n)
			return err
		})
	}
	return g.Wait(p)
}

// FSRead is the Figure 8 LFS read: file system overhead on the host CPU,
// then the file's blocks stream from the array into HIPPI network buffers
// in XBUS memory (no network send — matching the paper's measurement).
// The read goes through the handle's read stream (stream.go), each piece
// taking one crossbar pass into the network buffers as it lands.  The bytes
// read are returned; a short result (only at EOF) is shorter than size.
func (b *Board) FSRead(p *sim.Proc, f *FSFile, off int64, size int) (_ []byte, err error) {
	defer telemetry.Ensure(p, "fs-read")(&err)
	b.sys.Host.CPUWork(p, FSReadOverhead)
	// Each piece takes one crossbar pass into the network buffers as it
	// lands and gives its DRAM back; the read's own give their places back.
	crossbar := func(q *sim.Proc, n int) {
		b.XB.Memory.Transfer(q, n)
		b.XB.Buffers.Release(n)
	}
	pl := places{eng: b.sys.Eng}
	own := func(q *sim.Proc, n int) {
		crossbar(q, n)
		pl.give()
	}
	end := off + int64(size)
	gen := f.File.Generation()
	parts, ahead := f.rs.plan(gen, off, end)
	// The window's bytes are the result as they stand when the read is
	// all window; otherwise the read's own pieces land in out.
	var out []byte
	g := p.Fork()
	for i, pt := range parts {
		if pt.pc == nil {
			if out == nil {
				out = make([]byte, size)
			}
			pl.take(p)
			parts[i].pc = f.issue(g, pt.lo, out[pt.lo-off:pt.hi-off], own)
			parts[i].own = true
		}
	}
	if ahead {
		f.lookAhead(p, gen, off, end, crossbar)
	}
	err = g.Wait(p)
	var total int64 // furthest byte delivered
	for _, pt := range parts {
		pt.pc.landed.Wait(p)
		if err == nil {
			err = pt.pc.err
		}
		if hi := pt.reach(); hi > pt.lo {
			if out != nil && !pt.own {
				copy(out[pt.lo-off:], pt.pc.buf[pt.lo-pt.pc.off:hi-pt.pc.off])
			}
			total = max(total, hi-off)
		}
	}
	if out == nil {
		if len(parts) == 0 {
			return []byte{}, err
		}
		first := parts[0].pc
		return first.buf[off-first.off : off-first.off+total : off-first.off+total], err
	}
	return out[:total], err
}

// FSWrite is the Figure 8 LFS write: file system overhead on the host
// CPU, then the data move from XBUS network buffers into the LFS write
// buffers and eventually to the array as full segments.
func (b *Board) FSWrite(p *sim.Proc, f *FSFile, off int64, data []byte) (err error) {
	defer telemetry.Ensure(p, "fs-write")(&err)
	b.sys.Host.CPUWork(p, FSWriteOverhead)
	// One crossbar pass from network buffer to LFS segment buffer.
	b.XB.Memory.Transfer(p, len(data))
	_, err = f.File.WriteAt(p, data, off)
	return err
}

// FSFile pairs an LFS handle with its board and the handle's read stream.
type FSFile struct {
	Board *Board
	File  interface {
		ReadAt(p *sim.Proc, off int64, n int) ([]byte, error)
		ReadAtPieces(p *sim.Proc, off int64, dst []byte, piece int, ready func(q *sim.Proc, off, n int) error) (int, error)
		WriteAt(p *sim.Proc, data []byte, off int64) (int, error)
		Size(p *sim.Proc) (int64, error)
		Generation() uint64
	}
	rs readStream
}

// OpenFS opens path on the board's file system.  The file system's sentinel
// errors (lfs.ErrNotExist, ...) stay reachable through errors.Is.
func (b *Board) OpenFS(p *sim.Proc, path string) (*FSFile, error) {
	fs, err := b.Filesystem()
	if err != nil {
		return nil, err
	}
	f, err := fs.Open(p, path)
	if err != nil {
		return nil, fmt.Errorf("server: open %s on board %d: %w", path, b.Index, err)
	}
	return &FSFile{Board: b, File: f}, nil
}

// CreateFS creates path on the board's file system.
func (b *Board) CreateFS(p *sim.Proc, path string) (*FSFile, error) {
	fs, err := b.Filesystem()
	if err != nil {
		return nil, err
	}
	f, err := fs.Create(p, path)
	if err != nil {
		return nil, fmt.Errorf("server: create %s on board %d: %w", path, b.Index, err)
	}
	return &FSFile{Board: b, File: f}, nil
}

// SmallDiskRead is the Table 2 unit of work: one 4 KB read from a specific
// disk (no striping, as in the paper's test program), plus the host's
// per-I/O completion cost.  RAID-II's completions carry no data through
// host memory.
func (b *Board) SmallDiskRead(p *sim.Proc, diskIdx int, lba int64, bytes int) (err error) {
	defer telemetry.Ensure(p, "small-read")(&err)
	ad := b.Disks[diskIdx]
	port := (diskIdx / (2 * b.sys.Cfg.DisksPerString)) % len(b.XB.VME)
	secs := (bytes + ad.SectorSize() - 1) / ad.SectorSize()
	if _, err := ad.Read(p, lba, secs, b.XB.DiskReadPath(port)); err != nil {
		return err
	}
	b.sys.Host.PerIO(p)
	return nil
}

// EtherRead services a client read in standard mode: the host commands the
// XBUS board over the VME link, data cross from XBUS memory into host
// memory, the host packages them into Ethernet packets.
func (b *Board) EtherRead(p *sim.Proc, f *FSFile, off int64, size int) (err error) {
	defer telemetry.Ensure(p, "ether-read")(&err)
	h := b.sys.Host
	h.CPUWork(p, FSReadOverhead)
	if _, err := f.File.ReadAt(p, off, size); err != nil {
		return err
	}
	// Low-bandwidth path: XBUS -> host VME port -> host memory -> copy ->
	// Ethernet, pipelined at chunk granularity.
	g := p.Fork()
	for _, n := range Chunks(size) {
		g.Go("ether-chunk", func(q *sim.Proc) error {
			b.XB.HostTransfer(q, n, true)
			h.DMAIn(q, n)
			h.CopyAsync(q, n)
			_, err := b.sys.Ether.Send(q, n)
			return err
		})
	}
	err = g.Wait(p)
	h.PerIO(p)
	return err
}
