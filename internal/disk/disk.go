package disk

import (
	"fmt"
	"time"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// SchedPolicy selects how queued requests are admitted to the actuator.
type SchedPolicy int

const (
	// SchedFIFO services requests in arrival order.
	SchedFIFO SchedPolicy = iota
	// SchedSSTF services the queued request with the shortest seek from
	// the current cylinder; better throughput, can starve outliers.
	SchedSSTF
	// SchedSCAN sweeps the arm across the cylinders, servicing requests in
	// passing (the elevator algorithm).
	SchedSCAN
)

// Disk is a simulated drive: it stores real sector contents and charges
// simulated time for command overhead, seeking, rotational latency, media
// transfer and (optionally) the bus path the data traverses.
//
// Transfers are pipelined: during a read, a chunk of data leaves the drive
// for the bus path as soon as the media has produced it, while the heads
// keep reading; during a write, the media starts committing chunks as they
// arrive from the bus.  A multi-hop path therefore runs at the bandwidth of
// its slowest stage rather than the sum of stage times.
type Disk struct {
	spec     Spec
	eng      *sim.Engine
	curve    seekCurve
	actuator *sim.ChooserServer
	sched    SchedPolicy
	scanDir  int64 // SCAN's sweep: +1 up, -1 down
	store    *pagestore

	curCyl  int
	seqNext int64 // LBA that would continue the previous access; -1 if none

	// mediaFront is the simulated time through which the media has
	// produced data for the current sequential run.  During read-ahead the
	// drive keeps reading into its track buffer while earlier data drains
	// over the bus, so on a sequential hit the next request's data may
	// already be buffered; the front may run ahead of consumption by at
	// most the track buffer's worth of media time.
	mediaFront sim.Time

	media mediaStage // the media stage of the write in progress

	flt   faultState
	stats Stats

	// Port is the drive's stall state, read at selection: a wedged SCSI
	// string stalls every drive on it (scsi.Disk.StallString).
	Port fault.Port
}

// Stats accumulates per-drive counters.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	SeqHits      uint64 // reads serviced from the track read-ahead buffer
	SeekTime     time.Duration
	RotTime      time.Duration
	MediaTime    time.Duration
}

// New creates a drive of the given spec attached to engine e.  The spec
// is validated (see Spec.Validate): a malformed geometry used to panic
// deep inside the seek-curve fit; now it surfaces as an error the
// assembly code can report.
func New(e *sim.Engine, name string, spec Spec) (*Disk, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &Disk{
		spec:    spec,
		eng:     e,
		curve:   newSeekCurve(spec),
		store:   newPagestore(spec.Capacity()),
		seqNext: -1,
		scanDir: 1,
	}
	d.actuator = sim.NewChooserServer(e, name+":actuator", d.chooseNext)
	d.media = mediaStage{d: d, posDone: sim.NewEvent(e)}
	return d, nil
}

// SetScheduler selects the actuator's request scheduling policy; the
// default is FIFO, which is what the 1993 firmware did.
func (d *Disk) SetScheduler(p SchedPolicy) { d.sched = p }

// chooseNext implements the scheduling policy over the queued requests'
// target cylinders.
func (d *Disk) chooseNext(tags []int64) int {
	// nearest picks the request closest to the arm either way (dir 0), or
	// ahead of it in direction dir (+1 up, -1 down).
	nearest := func(dir int64) (best int, found bool) {
		bestDist := int64(1) << 62
		for i, cyl := range tags {
			dist := cyl - int64(d.curCyl)
			if dir != 0 {
				dist *= dir
			} else if dist < 0 {
				dist = -dist
			}
			if dist >= 0 && dist < bestDist {
				best, bestDist, found = i, dist, true
			}
		}
		return best, found
	}
	switch d.sched {
	case SchedSSTF:
		i, _ := nearest(0)
		return i
	case SchedSCAN:
		// Nearest request in the sweep direction; reverse at the edge.
		i, ok := nearest(d.scanDir)
		if !ok {
			d.scanDir = -d.scanDir
			i, _ = nearest(d.scanDir)
		}
		return i
	}
	return 0
}

// Spec returns the drive's specification.
func (d *Disk) Spec() Spec { return d.spec }

// Sectors returns the number of addressable sectors.
func (d *Disk) Sectors() int64 { return d.spec.Sectors() }

// SectorSize returns the sector size in bytes.
func (d *Disk) SectorSize() int { return d.spec.SectorSize }

// Stats returns a copy of the drive's counters.
func (d *Disk) Stats() Stats { return d.stats }

func (d *Disk) checkRange(lba int64, sectors int) {
	if lba < 0 || sectors <= 0 || lba+int64(sectors) > d.spec.Sectors() {
		//lint:allow simpanic out-of-range access is caller corruption, equivalent to indexing past a slice
		panic(fmt.Sprintf("disk %s: access [%d,+%d) out of %d sectors",
			d.spec.Name, lba, sectors, d.spec.Sectors()))
	}
}

// cylOf maps an LBA to its cylinder.
func (d *Disk) cylOf(lba int64) int {
	perCyl := int64(d.spec.SectorsPerTrack * d.spec.Heads)
	return int(lba / perCyl)
}

// rotationalLatency returns the wait for the platter to bring the start
// sector under the head, given the current simulated time.  The platter
// phase is derived deterministically from the clock.
func (d *Disk) rotationalLatency(now sim.Time, lba int64) time.Duration {
	rev := int64(d.spec.Revolution())
	target := lba % int64(d.spec.SectorsPerTrack) * int64(d.spec.SectorTime())
	lat := target - int64(now)%rev
	if lat < 0 {
		lat += rev
	}
	return time.Duration(lat)
}

// mediaTime returns the time for n consecutive sectors to pass under the
// heads starting at lba, including head switches and track-to-track seeks
// at track and cylinder boundaries (formatting skew is assumed to hide
// rotational resynchronization).
func (d *Disk) mediaTime(lba int64, n int) time.Duration {
	spt := int64(d.spec.SectorsPerTrack)
	perCyl := spt * int64(d.spec.Heads)
	t := time.Duration(n) * d.spec.SectorTime()
	last := lba + int64(n) - 1
	trackCross := int(last/spt - lba/spt)
	cylCross := int(last/perCyl - lba/perCyl)
	t += time.Duration(trackCross-cylCross) * d.spec.HeadSwitch
	return t + time.Duration(cylCross)*d.curve.time(1)
}

// seqHit reports whether a read at lba would be serviced by the drive's
// read-ahead buffer (it exactly continues the previous access).
func (d *Disk) seqHit(lba int64) bool {
	return d.spec.TrackBufferSize > 0 && lba == d.seqNext
}

// position charges command overhead, seek and rotational latency for an
// access beginning at lba, or only command overhead when hit is true (the
// access continues the previous one out of the read-ahead buffer).  It
// returns with the heads on the target cylinder.
func (d *Disk) position(p *sim.Proc, lba int64, hit bool) {
	p.Wait(d.spec.CmdOverhead)
	if hit {
		d.stats.SeqHits++
		return
	}
	cyl := d.cylOf(lba)
	st := d.curve.time(max(cyl-d.curCyl, d.curCyl-cyl))
	d.stats.SeekTime += st
	endSeek := p.Span("disk", "seek")
	p.Wait(st)
	endSeek()
	d.curCyl = cyl
	rl := d.rotationalLatency(p.Now(), lba)
	d.stats.RotTime += rl
	endRot := p.Span("disk", "rotate")
	p.Wait(rl)
	endRot()
}

// Read reads sectors [lba, lba+n) into a fresh buffer; see ReadInto.
func (d *Disk) Read(p *sim.Proc, lba int64, n int, path sim.Path) ([]byte, error) {
	buf := make([]byte, n*d.spec.SectorSize)
	if err := d.ReadInto(p, lba, buf, path); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto reads the len(dst)/SectorSize sectors at lba into dst.  If path
// is non-empty, each chunk of data traverses the path as the media produces
// it; ReadInto returns when the last chunk has been delivered at the far end.
// The bytes are the drive's contents at actuator grant: a write queued
// behind this read, even one that completes during its delivery tail, does
// not reach them.  dst belongs to the drive, like a DMA buffer, from the
// call until it returns; a copy of a page or more fills it beside the
// engine while the media streams, and is joined before the actuator passes
// on (pagestore), so the caller must not touch dst until then.
// A failed drive returns fault.ErrDiskFailed after its command overhead; a
// read covering an armed latent error positions, streams up to the bad
// sector, and returns fault.ErrMedium, leaving dst alone.
func (d *Disk) ReadInto(p *sim.Proc, lba int64, dst []byte, path sim.Path) error {
	defer p.Span("disk", "read")()
	n := d.wholeSectors(len(dst))
	d.checkRange(lba, n)
	if err := d.admit(p); err != nil {
		return err
	}
	if bad, ok := d.flt.latent.First(lba, n, d.flt.ops); ok {
		d.actuator.Acquire(p, int64(d.cylOf(lba)))
		err := d.mediumError(p, lba, bad)
		d.actuator.Release()
		return err
	}
	d.actuator.Acquire(p, int64(d.cylOf(lba)))
	d.store.start(dst, lba*int64(d.spec.SectorSize), false)
	hit := d.seqHit(lba)
	d.position(p, lba, hit)

	if hit {
		// The media kept streaming ahead during the previous request's
		// bus drain, but only a track buffer's worth may be banked.
		banked := sim.BytesDuration(d.spec.TrackBufferSize, d.spec.MediaRate()/1e6)
		d.mediaFront = max(d.mediaFront, p.Now().Add(-banked))
	} else {
		d.mediaFront = p.Now()
	}

	// The media produces the sectors in order: each chunk starts through
	// path once the media front passes it (which may already have
	// happened, for buffered read-ahead data).
	j := sim.NewJoin(d.eng)
	endMedia := p.Span("disk", "media-read")
	d.eachChunk(lba, n, func(at int64, secs, bytes int) {
		mt := d.mediaTime(at, secs)
		d.stats.MediaTime += mt
		d.mediaFront = d.mediaFront.Add(mt)
		p.WaitUntil(d.mediaFront)
		path.Start(j, bytes, nil, 0)
	})
	endMedia()
	d.curCyl = d.cylOf(lba + int64(n) - 1)
	d.seqNext = lba + int64(n)
	d.stats.Reads++
	d.stats.BytesRead += uint64(n * d.spec.SectorSize)
	d.store.join()
	d.actuator.Release()
	j.Wait(p) // for the last chunk delivered downstream
	return nil
}

// wholeSectors returns the sector count of a transfer buffer.
func (d *Disk) wholeSectors(length int) int {
	if length%d.spec.SectorSize != 0 {
		//lint:allow simpanic misaligned buffer is caller corruption; the array layer always moves whole sectors
		panic("disk: transfer length not a whole number of sectors")
	}
	return length / d.spec.SectorSize
}

// Write stores data (whose length must be a whole number of sectors) at
// lba.  If path is non-empty the data first traverses the path toward the
// drive, overlapped with head positioning; media writing of each chunk
// begins once the chunk has arrived and the previous chunk has committed.
// Writing over an armed latent error remaps the bad sectors.  data belongs
// to the drive, like a DMA buffer, from the call until it returns: the
// drive takes its bytes at actuator grant, and a copy of a page or more
// runs beside the engine until the write completes (pagestore), so the
// caller must not change data until then.
func (d *Disk) Write(p *sim.Proc, lba int64, data []byte, path sim.Path) error {
	defer p.Span("disk", "write")()
	n := d.wholeSectors(len(data))
	d.checkRange(lba, n)
	if err := d.admit(p); err != nil {
		return err
	}
	d.flt.latent.Clear(lba, n)
	d.actuator.Acquire(p, int64(d.cylOf(lba)))
	d.store.start(data, lba*int64(d.spec.SectorSize), true)

	// Position while the first chunks are in flight on the bus.
	m := &d.media
	m.posDone.Reset()
	m.mediaFree = 0
	d.eng.Spawn("diskwrite-pos", func(q *sim.Proc) {
		d.position(q, lba, false)
		m.posDone.Signal()
	})
	// Each chunk crosses the path and then the media stage as engine steps.
	j := sim.NewJoin(d.eng)
	d.eachChunk(lba, n, func(at int64, _, bytes int) { path.Start(j, bytes, m, at) })
	j.Wait(p)

	d.curCyl = d.cylOf(lba + int64(n) - 1)
	d.seqNext = -1 // writing invalidates the read-ahead window
	d.stats.Writes++
	d.stats.BytesWritten += uint64(len(data))
	d.store.join()
	d.actuator.Release()
	return nil
}

// mediaStage is the sim.Stage of a Write's chunks: past the bus path a
// chunk waits for the heads to be in place (posDone), then for the media
// to commit the chunks before it, and holds while its own sectors are
// written.  The actuator admits one write at a time, so each write re-arms
// the drive's one stage.
type mediaStage struct {
	d         *Disk
	posDone   *sim.Event
	mediaFree sim.Time // when the media can take the next chunk
}

func (m *mediaStage) Gate() *sim.Event { return m.posDone }

func (m *mediaStage) Until(lba int64, n int) sim.Time {
	mt := m.d.mediaTime(lba, max(n/m.d.spec.SectorSize, 1))
	m.d.stats.MediaTime += mt
	m.mediaFree = max(m.d.eng.Now(), m.mediaFree).Add(mt)
	return m.mediaFree
}

// eachChunk calls fn, in order, for each DefaultChunk of the n sectors at
// lba, with the chunk's first sector, sector count and bytes.
func (d *Disk) eachChunk(lba int64, n int, fn func(lba int64, secs, bytes int)) {
	for remaining := n * d.spec.SectorSize; remaining > 0; {
		bytes := min(sim.DefaultChunk, remaining)
		remaining -= bytes
		secs := max(bytes/d.spec.SectorSize, 1)
		fn(lba, secs, bytes)
		lba += int64(secs)
	}
}

// ReadData returns sector contents without charging any simulated time,
// once the copy in flight has run.  It exists for verification in tests
// and for metadata bootstrapping.
func (d *Disk) ReadData(lba int64, n int) []byte {
	d.checkRange(lba, n)
	buf := make([]byte, n*d.spec.SectorSize)
	d.store.ReadAt(buf, lba*int64(d.spec.SectorSize))
	return buf
}

// WriteData stores sector contents without charging any simulated time,
// after the copy in flight.
func (d *Disk) WriteData(lba int64, data []byte) {
	d.checkRange(lba, d.wholeSectors(len(data)))
	d.store.WriteAt(data, lba*int64(d.spec.SectorSize))
}
