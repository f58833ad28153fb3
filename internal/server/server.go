// Package server assembles the RAID-II storage server: XBUS boards with
// their Cougar controllers, SCSI strings and disks, the RAID Level 5 array
// on each board, the LFS file system, the HIPPI attachment, and the host
// workstation with its Ethernet — plus the RAID-I first-prototype baseline
// for comparison.
//
// The architecture's defining property is its two data paths.  The
// high-bandwidth path moves data directly between the disks and the HIPPI
// network through XBUS memory, never touching the host; the host only
// performs control operations (name lookup, metadata, register pokes over
// its slow VME link).  The low-bandwidth path carries metadata and small
// transfers through host memory for Ethernet clients, exactly like RAID-I
// — and hits the same 2.3 MB/s wall, which is why it is reserved for small
// requests.
package server

import (
	"errors"
	"fmt"
	"time"

	"raidii/internal/cache"
	"raidii/internal/disk"
	"raidii/internal/ether"
	"raidii/internal/fault"
	"raidii/internal/hippi"
	"raidii/internal/host"
	"raidii/internal/lfs"
	"raidii/internal/raid"
	"raidii/internal/scsi"
	"raidii/internal/sim"
	"raidii/internal/xbus"
)

// FSReadOverhead and FSWriteOverhead are the host CPU cost of one file
// system operation (§3.4: ~4 ms of file system overhead per read, ~3 ms of
// network and file system overhead per small write).  Every board read
// (HardwareRead, FSRead, EtherRead, the client's raid_read) is cut into
// pieces of PipelineChunk bytes and keeps at most pipelineDepth of its own
// in flight ("LFS may have several pipeline processes issuing read
// requests"): together a file handle's read window (stream.go).  The client
// library writes in pieces of the same size.
const (
	FSReadOverhead  = 4 * time.Millisecond
	FSWriteOverhead = 3 * time.Millisecond
	pipelineDepth   = 8
	PipelineChunk   = 256 << 10
)

// Config assembles a RAID-II system.
type Config struct {
	// Name prefixes every simulation resource the server creates (XBUS
	// boards, Cougars, disks, host, Ethernet), so several server hosts can
	// share one engine without colliding in traces and telemetry.  New
	// keeps it (empty by default); NewFleet assigns "s0", "s1", ...
	Name string

	// Servers is the number of server hosts a fleet assembles (§2.1.2:
	// "the bandwidth of the file server can be scaled by ... adding
	// multiple storage servers on the Ultranet ring").  New builds one
	// host and ignores it; NewFleet builds this many.
	Servers int

	// StripeFragmentBytes is the cluster striping fragment size — how many
	// bytes of a striped file land on one (server, board) pair per stripe
	// (0 = the zebra package default).  Fleet-level; New ignores it.
	StripeFragmentBytes int

	// CrossParity stores one parity fragment per cluster stripe so the
	// loss of a whole server host is survivable (Zebra-style, §5.2).
	// Effective only in fleets of three or more servers.
	CrossParity bool

	Boards int // number of XBUS boards

	// Per-board disk attachment: Cougars x strings x disks per string.
	Cougars        int
	DisksPerString int
	// FifthCougar attaches an extra Cougar (two more strings) through the
	// XBUS control-bus port, the Table 1 peak-sequential configuration.
	FifthCougar bool

	DiskSpec disk.Spec
	// DiskSched selects the drives' actuator scheduling policy.  The 1993
	// firmware was FIFO; SSTF/SCAN are ablation options.
	DiskSched disk.SchedPolicy

	RAIDLevel         raid.Level
	StripeUnitSectors int

	XBus  xbus.Config
	SCSI  scsi.Config
	HIPPI hippi.Config
	Host  host.Config

	// LFS is the file system's configuration.  Its Images is not read: a
	// board derives it from NVRAMBytes.  A SegBytes of 0 (DefaultConfig's)
	// has each board derive its segment from its array (segmentBytes).
	LFS lfs.Config

	// CacheBytes carves an XBUS-memory-resident block cache of this size
	// out of each board's DRAM, consulted by the datapath before array
	// reads (0 = no cache).  The carve-out and the transfer buffers share
	// the board's 32 MB honestly: oversized caches fail assembly.
	CacheBytes int
	// CacheLineBytes is the cache line size (0 = cache.DefaultLineBytes).
	CacheLineBytes int

	// NVRAMBytes carves a battery-backed region of this size out of each
	// board's DRAM (0 = no NVRAM) to hold the file system's segment images:
	// as many as it holds whole segments, and a region smaller than one
	// segment fails assembly.  A durable write then acknowledges once it is
	// committed into the open segment, without a seal, and after a crash
	// MountFS rolls the images the disks lack forward.  The carve-out shares
	// the board's 32 MB with the cache and transfer buffers.
	NVRAMBytes int

	// Faults is the deterministic fault plan armed when the system is
	// assembled; the zero value injects nothing.
	Faults fault.Plan

	// ClientRetry is the retry/timeout policy client workstations inherit
	// when they attach; the zero value disables retrying.
	ClientRetry fault.RetryPolicy
}

// DefaultConfig is the paper's measured configuration: one XBUS board,
// four Cougars, two strings each, three IBM 0661 disks per string (24
// disks), RAID Level 5, 64 KB stripe unit, and LFS segments of whole
// stripes (segmentBytes).
func DefaultConfig() Config {
	c := Config{
		Servers:           1,
		CrossParity:       true,
		Boards:            1,
		Cougars:           4,
		DisksPerString:    3,
		DiskSpec:          disk.IBM0661(),
		RAIDLevel:         raid.Level5,
		StripeUnitSectors: (64 << 10) / 512,
		XBus:              xbus.DefaultConfig(),
		SCSI:              scsi.DefaultConfig(),
		HIPPI:             hippi.DefaultConfig(),
		Host:              host.Sun4280RAIDII(),
		LFS:               lfs.DefaultConfig(),
	}
	c.LFS.SegBytes = 0
	return c
}

// Fig8Config is the LFS measurement configuration of §3.4: a single XBUS
// board with 16 disks, 64 KB striping, so 960 KB segments.
func Fig8Config() Config {
	c := DefaultConfig()
	c.DisksPerString = 2 // 4 cougars x 2 strings x 2 disks = 16
	return c
}

// System is an assembled RAID-II server host.
type System struct {
	Eng    *sim.Engine
	Cfg    Config
	Host   *host.Host
	Ether  *ether.Segment
	Ultra  *hippi.Ultranet
	Boards []*Board

	// index is the host's position in fleet, the fleet it belongs to; a
	// standalone server is host 0 of a fleet of one.
	index int
	fleet *Fleet

	// down records a ServerDown fault: the whole host is dead until a
	// ServerUp event restores it.
	down bool
}

// RegisterClientEndpoint records a client workstation's HIPPI endpoint in
// the fleet's registry (Fleet.RegisterClientEndpoint).
func (sys *System) RegisterClientEndpoint(ep *hippi.Endpoint) int {
	return sys.fleet.RegisterClientEndpoint(ep)
}

// Index returns the host's position in its fleet (0 for a standalone
// server, a fleet of one).
func (sys *System) Index() int { return sys.index }

// SetDown kills the whole server host (or restores it): every board's
// HIPPI endpoint stops answering, so transfers touching the host fail with
// fault.ErrLinkDown until the host comes back.
func (sys *System) SetDown(down bool) {
	sys.down = down
	for _, b := range sys.Boards {
		b.HEP.Down = down
	}
}

// Down reports whether the host is currently dead (a ServerDown fault).
func (sys *System) Down() bool { return sys.down }

// prefixed applies the host's resource-name prefix.
func (c Config) prefixed(name string) string {
	if c.Name == "" {
		return name
	}
	return c.Name + "-" + name
}

// Board is one XBUS board with its disks, array, and (optionally) file
// system.
type Board struct {
	sys     *System
	Index   int
	XB      *xbus.Board
	Cougars []*scsi.Controller
	Disks   []*scsi.Bound
	Array   *raid.Array
	Cache   *cache.Cache // XBUS-resident block cache; nil when not configured
	FS      *lfs.FS
	HEP     *hippi.Endpoint // HIPPI endpoint of this board
	nv      *nvram          // battery-backed region; nil when not configured
	fsCfg   lfs.Config      // what the file system is formatted and mounted with
	bufs    streamBufs      // the read stream's buffers and FSRead's leases (stream.go)
}

// Dev returns the store the file system and datapath read and write: the
// block cache when one is configured, else the raw array.
func (b *Board) Dev() lfs.Device {
	if b.Cache != nil {
		return b.Cache
	}
	return b.Array
}

// AdmissionStats is always zero: boards admit every request.  It remains
// only because the benchmark harness (benchmark/rep.go) still reads it.
func (b *Board) AdmissionStats() struct{ Queued, Shed uint64 } {
	return struct{ Queued, Shed uint64 }{}
}

// bind binds a disk on Cougar c to the board: Cougar c uses VME disk port
// c, and the fifth Cougar, past Config.Cougars, the host control port.
// Every transfer then traverses string -> Cougar -> port -> XBUS memory.
func (b *Board) bind(ad *scsi.Disk, c int) *scsi.Bound {
	if c >= b.sys.Cfg.Cougars {
		return ad.Bind(sim.Path{b.XB.Host.In()}, sim.Path{b.XB.Host.Out()})
	}
	return ad.Bind(b.XB.DiskReadPath(c), b.XB.DiskWritePath(c))
}

// New assembles a standalone server, a fleet of one whose host keeps
// cfg.Name, on a fresh engine and arms its fault plan.
func New(cfg Config) (*System, error) {
	fl, err := newFleet(cfg, []string{cfg.Name})
	if err != nil {
		return nil, err
	}
	return fl.Servers[0], nil
}

// assemble builds the fleet's host number index on the fleet's engine and
// ring.  The fleet arms the fault plan once every host is built.
func (fl *Fleet) assemble(index int, cfg Config) (*System, error) {
	e := fl.Eng
	hostCfg := cfg.Host
	hostCfg.Name = cfg.prefixed(hostCfg.Name)
	sys := &System{
		Eng:   e,
		Cfg:   cfg,
		Host:  host.New(e, hostCfg),
		Ether: ether.New(e, cfg.prefixed("ether0"), ether.DefaultConfig()),
		Ultra: fl.Ultra,
		index: index,
		fleet: fl,
	}
	for b := 0; b < cfg.Boards; b++ {
		board, err := sys.newBoard(b)
		if err != nil {
			return nil, err
		}
		sys.Boards = append(sys.Boards, board)
	}
	return sys, nil
}

func (sys *System) newBoard(idx int) (*Board, error) {
	e := sys.Eng
	cfg := sys.Cfg
	xb := xbus.New(e, cfg.prefixed(fmt.Sprintf("xbus%d", idx)), cfg.XBus)
	b := &Board{sys: sys, Index: idx, XB: xb, bufs: newStreamBufs()}
	b.HEP = &hippi.Endpoint{
		Name:  cfg.prefixed(fmt.Sprintf("xbus%d", idx)),
		Out:   xb.HIPPIS.Out(),
		In:    xb.HIPPID.In(),
		Setup: cfg.HIPPI.PacketSetup,
	}

	var devs []raid.Dev
	nCougars := cfg.Cougars
	if cfg.FifthCougar {
		nCougars++
	}
	diskNo := 0
	for c := 0; c < nCougars; c++ {
		ctl := scsi.NewController(e, cfg.prefixed(fmt.Sprintf("xb%d-cougar%d", idx, c)), cfg.SCSI)
		b.Cougars = append(b.Cougars, ctl)
		if c < cfg.Cougars && c >= cfg.XBus.VMEDiskPorts {
			return nil, fmt.Errorf("server: cougar %d has no VME port", c)
		}
		for s := 0; s < 2; s++ {
			for d := 0; d < cfg.DisksPerString; d++ {
				dr, err := disk.New(e, cfg.prefixed(fmt.Sprintf("xb%d-d%d", idx, diskNo)), cfg.DiskSpec)
				if err != nil {
					return nil, err
				}
				dr.SetScheduler(cfg.DiskSched)
				bd := b.bind(ctl.Attach(dr, s), c)
				b.Disks = append(b.Disks, bd)
				devs = append(devs, bd)
				diskNo++
			}
		}
	}
	arr, err := raid.New(e, devs, raid.Config{
		Level:             cfg.RAIDLevel,
		StripeUnitSectors: cfg.StripeUnitSectors,
	}, xb)
	if err != nil {
		return nil, err
	}
	b.Array = arr
	if cfg.CacheBytes > 0 {
		if err := xb.ReserveMemory(cfg.CacheBytes); err != nil {
			return nil, fmt.Errorf("server: board %d cache: %w", idx, err)
		}
		cc, err := cache.New(e, arr, xb.Memory, cache.Config{
			SizeBytes:   cfg.CacheBytes,
			LineBytes:   cfg.CacheLineBytes,
			StageWrites: true,
		})
		if err != nil {
			return nil, fmt.Errorf("server: board %d cache: %w", idx, err)
		}
		b.Cache = cc
	}
	b.fsCfg = cfg.LFS
	if b.fsCfg.SegBytes == 0 {
		b.fsCfg.SegBytes = segmentBytes(arr)
	}
	b.fsCfg.Images = cfg.NVRAMBytes / b.fsCfg.SegBytes
	if cfg.NVRAMBytes > 0 {
		if b.fsCfg.Images == 0 {
			return nil, fmt.Errorf("server: board %d: nvram region of %d bytes holds no %d-byte segment", idx, cfg.NVRAMBytes, b.fsCfg.SegBytes)
		}
		if err := xb.ReserveMemory(cfg.NVRAMBytes); err != nil {
			return nil, fmt.Errorf("server: board %d nvram: %w", idx, err)
		}
		b.nv = &nvram{}
	}
	return b, nil
}

// segmentBytes is the LFS segment a board derives from its array: as many
// whole stripes as fit in the paper's 960 KB ("The log is written to the
// disk array in units or segments of 960 kilobytes", one stripe of the
// 16-disk array), one when a stripe is larger, and fewer where that count
// would leave the segment short of whole file-system blocks.  So every
// full segment is a full-stripe write, on every level and width.  An array
// whose single stripe is not whole blocks keeps 960 KB.
func segmentBytes(a *raid.Array) int {
	paper := lfs.DefaultConfig().SegBytes
	stripe := a.DataDisks() * a.StripeUnitSectors() * a.SectorSize()
	for n := max(paper/stripe, 1); n > 0; n-- {
		if n*stripe%lfs.BlockSize == 0 {
			return n * stripe
		}
	}
	return paper
}

// FormatFS creates the LFS on board b, storing through the block cache
// when one is configured.
func (b *Board) FormatFS(p *sim.Proc) error {
	fs, err := lfs.Format(p, b.sys.Eng, b.Dev(), b.fsCfg)
	if err != nil {
		return err
	}
	b.FS = fs
	return nil
}

// ErrNoFS reports a file-system call on a board that has no file system yet:
// neither FormatFS nor MountFS has run.
var ErrNoFS = errors.New("server: no file system")

// Filesystem returns the board's file system, or ErrNoFS when it has none.
func (b *Board) Filesystem() (*lfs.FS, error) {
	if b.FS == nil {
		return nil, fmt.Errorf("server: board %d: %w", b.Index, ErrNoFS)
	}
	return b.FS, nil
}

// Crash drops the board's volatile state: LFS segment buffers and every
// line of the block cache.  DRAM contents do not survive a server crash,
// so the cache must never satisfy a post-crash read from pre-crash state —
// the write-through policy means no data are lost, only re-read cost.
// The battery-backed NVRAM region is the exception: the segment images it
// holds survive, and MountFS rolls the ones the disks lack forward.
func (b *Board) Crash() {
	if b.FS != nil {
		if tail := b.FS.Crash(); tail != nil && b.nv != nil {
			b.nv.tail = tail
		}
	}
	if b.Cache != nil {
		b.Cache.InvalidateAll()
	}
}

// NumDisks returns the number of disks on the board.
func (b *Board) NumDisks() int { return len(b.Disks) }

// AttachSpare creates a replacement drive on the given Cougar and string,
// bound through the board's VME port path — ready to hand to
// Array.Reconstruct when a member disk fails.
func (b *Board) AttachSpare(cougar, str int) (raid.Dev, error) {
	dr, err := disk.New(b.sys.Eng, b.sys.Cfg.prefixed(fmt.Sprintf("xb%d-spare", b.Index)), b.sys.Cfg.DiskSpec)
	if err != nil {
		return nil, err
	}
	dr.SetScheduler(b.sys.Cfg.DiskSched)
	bd := b.bind(b.Cougars[cougar].Attach(dr, str), cougar)
	b.Disks = append(b.Disks, bd)
	return bd, nil
}

// ReplaceDisk attaches a spare drive on the failed device's own Cougar and
// string (where the field technician would plug it in) and starts a
// background hot rebuild onto it, returning the rebuild handle.  A request
// the array refuses attaches nothing.
func (b *Board) ReplaceDisk(devIdx int) (*raid.Rebuild, error) {
	if err := b.Array.CanReplace(devIdx); err != nil {
		return nil, fmt.Errorf("server: board %d: %w", b.Index, err)
	}
	perCougar := 2 * b.sys.Cfg.DisksPerString
	cougar := devIdx / perCougar
	str := (devIdx / b.sys.Cfg.DisksPerString) % 2
	spare, err := b.AttachSpare(cougar, str)
	if err != nil {
		return nil, err
	}
	return b.Array.ReplaceDisk(devIdx, spare)
}

// MountFS mounts an existing LFS from the board's array, rolling forward
// whatever checkpoint and log survive — the recovery path after a crash
// fault.  On a board with NVRAM the log goes on past the disks' end in the
// segment images the last crash left in the region.
func (b *Board) MountFS(p *sim.Proc) error {
	var tail *lfs.Tail
	if b.nv != nil {
		tail = b.nv.tail
	}
	fs, err := lfs.MountTail(p, b.sys.Eng, b.Dev(), b.fsCfg, tail)
	if err != nil {
		return fmt.Errorf("server: mount board %d: %w", b.Index, err)
	}
	if b.nv != nil {
		b.nv.tail = nil
	}
	b.FS = fs
	return nil
}
