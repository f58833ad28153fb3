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

// writeDevStreaming issues a benchmark-mode streaming write, keeping the
// block cache coherent (and staging freshly written lines) when present.
func (b *Board) writeDevStreaming(p *sim.Proc, at int64, data []byte) error {
	if b.Cache != nil {
		return b.Cache.WriteStreaming(p, at, data)
	}
	return b.Array.WriteStreaming(p, at, data)
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
// memory again.  It is the piece pipeline's in-order discipline (stream.go)
// on the raw store, with no window: the HIPPI sends each piece as it and
// every earlier one have landed, after one packet setup for the request
// that runs from its start, beside the disk reads.  The disks read whole
// sectors; the HIPPI carries the caller's size bytes.
func (b *Board) HardwareRead(p *sim.Proc, offSectors int64, size int) (err error) {
	defer telemetry.Ensure(p, "hw-read")(&err)
	secSize := int64(b.Array.SectorSize())
	off := offSectors * secSize
	end := off + (int64(size)+secSize-1)/secSize*secSize
	setup, left := p.Now().Add(b.HEP.Setup), size
	_, err = b.inOrder(p, b.readRaw, split(off, end), func(p *sim.Proc, n int) error {
		p.WaitUntil(setup)
		n = min(n, left)
		left -= n
		sim.Path{b.HEP.Out, b.HEP.In}.Send(p, n, 0)
		return nil
	}, nil)
	return err
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
		b.XB.Buffers.AcquireN(p, n)
		sim.Path{b.HEP.Out, b.HEP.In}.Send(p, n, 0)
		g.Go("hw-write-disk", func(q *sim.Proc) error {
			err := b.writeDevStreaming(q, at, make([]byte, secs*secSize))
			b.XB.Buffers.ReleaseN(n)
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
//
// The result is lent, not given: it is the board's buffer, and its bytes
// stay valid only until the same process's next FSRead on this board, which
// may reuse it.  A caller that keeps bytes past that point copies them.
func (b *Board) FSRead(p *sim.Proc, f *FSFile, off int64, size int) (_ []byte, err error) {
	defer telemetry.Ensure(p, "fs-read")(&err)
	b.bufs.release(p.ID())
	b.sys.Host.CPUWork(p, FSReadOverhead)
	crossbar := func(q *sim.Proc, pc *piece) error {
		b.XB.Memory.Transfer(q, len(pc.buf))
		b.XB.Buffers.ReleaseN(len(pc.buf))
		return nil
	}
	parts, ahead := f.plan(p, off, off+int64(size), crossbar)
	data, l, err := f.gather(p, off, size, parts, crossbar, ahead)
	b.bufs.lend(p.ID(), l)
	return data, err
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

// FSFile pairs an LFS handle with its board and the handle's read stream
// (stream.go), which starts empty.
type FSFile struct {
	Board *Board
	File  interface {
		ReadAtPieces(p *sim.Proc, off int64, dst []byte, piece int, ready func(q *sim.Proc, off, n int) error) (int, error)
		WriteAt(p *sim.Proc, data []byte, off int64) (int, error)
		Size(p *sim.Proc) (int64, error)
		Generation() uint64
	}
	next int64   // where the handle's last read ended
	win  *window // the look-ahead; nil when there is none
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
	bd := b.Disks[diskIdx]
	secs := (bytes + bd.SectorSize() - 1) / bd.SectorSize()
	if _, err := bd.Read(p, lba, secs); err != nil {
		return err
	}
	b.sys.Host.PerIO(p)
	return nil
}

// EtherRead services a client read in standard mode: the host commands the
// XBUS board over the VME link, data cross from XBUS memory into host
// memory, the host packages them into Ethernet packets.  It is the piece
// pipeline's as-landed discipline (stream.go): each piece takes that path,
// XBUS -> host VME port -> host memory -> copy -> Ethernet, with the bytes
// the file has as it lands.  The handle's window is the HIPPI path's:
// EtherRead neither takes nor opens it.
func (b *Board) EtherRead(p *sim.Proc, f *FSFile, off int64, size int) (err error) {
	defer telemetry.Ensure(p, "ether-read")(&err)
	h := b.sys.Host
	h.CPUWork(p, FSReadOverhead)
	_, l, err := f.gather(p, off, size, split(off, off+int64(size)), func(q *sim.Proc, pc *piece) error {
		defer b.XB.Buffers.ReleaseN(len(pc.buf))
		b.XB.HostTransfer(q, pc.got, true)
		h.DMAIn(q, pc.got)
		h.CopyAsync(q, pc.got)
		_, err := b.sys.Ether.Send(q, pc.got)
		return err
	}, nil)
	f.Board.bufs.end(l, true) // the bytes went out on the Ethernet; nobody keeps them
	h.PerIO(p)
	return err
}
