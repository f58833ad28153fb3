// Package raidii is a Go reproduction of RAID-II, the Berkeley
// high-bandwidth network file server (Drapeau et al., 1994).  It assembles
// the complete system in simulation — IBM 0661 disks on SCSI strings
// behind Interphase Cougar controllers, the custom XBUS crossbar board
// with its parity engine and HIPPI source/destination ports, the Sun 4/280
// host with its slow memory system, a RAID Level 5 array, and the
// Log-Structured File System — and exposes the paper's workloads and
// experiments through a small API.
//
// Everything is functional as well as temporal: files really are stored
// through LFS segments onto parity-protected striped disks, while a
// deterministic discrete-event simulation accounts the time every byte
// spends on strings, buses, ports and platters.  Throughput numbers are
// simulated megabytes/second (decimal, as in the paper).
//
// Quick start:
//
//	srv, err := raidii.NewServer()
//	if err != nil {
//		log.Fatal(err)
//	}
//	_, err = srv.Simulate(func(t *raidii.Task) error {
//		if err := t.FormatFS(); err != nil {
//			return err
//		}
//		f, err := t.Board(0).Create("/data/video.raw")
//		if err != nil {
//			return err
//		}
//		if _, err := f.Write(0, make([]byte, 8<<20)); err != nil {
//			return err
//		}
//		if err := t.Sync(); err != nil {
//			return err
//		}
//		_, _, err = f.Read(0, 8<<20)
//		return err
//	})
//
// Every file system and hardware operation is per board, through
// Task.Board; Task itself formats, syncs and checkpoints every board and
// keeps the simulated clock.  Deterministic hardware and network faults are
// scripted with FaultPlans passed to WithFaultPlan (their events add up,
// and are checked when the server is assembled), or injected mid-run
// through the Board handle.
//
// NewCluster scales the same machine out the way §2.1.2 intends: several
// server hosts on one Ultranet ring, files striped across them with
// cross-server parity (see Cluster).  NewServer remains the single-host
// special case.
package raidii

import (
	"bytes"
	"fmt"
	"time"

	"raidii/internal/cache"
	"raidii/internal/fault"
	"raidii/internal/lfs"
	"raidii/internal/raid"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// FaultPlan scripts deterministic hardware and network faults — disk
// failures, latent sector errors, SCSI-string stalls, file system crashes,
// link flaps, packet loss, endpoint stalls, whole-host outages — fired at
// simulated times or drive operation counts.  The zero value injects
// nothing; builder methods chain:
//
//	raidii.FaultPlan{}.DiskFailAt(2*time.Second, 0, 3)
type FaultPlan = fault.Plan

// Sentinel errors surfaced by the public API; test with errors.Is.
var (
	// ErrNotExist reports a missing path component.
	ErrNotExist = lfs.ErrNotExist
	// ErrExist reports creating a name that already exists.
	ErrExist = lfs.ErrExist
	// ErrNotDir reports a non-directory path component.
	ErrNotDir = lfs.ErrNotDir
	// ErrIsDir reports a file operation on a directory.
	ErrIsDir = lfs.ErrIsDir
	// ErrNotEmpty reports removing a non-empty directory.
	ErrNotEmpty = lfs.ErrNotEmpty
	// ErrNoSpace reports a full log even after cleaning.
	ErrNoSpace = lfs.ErrNoSpace
	// ErrInvalid reports an invalid argument: a rename of a directory into
	// its own subtree, or hardware I/O reaching outside the board's array.
	ErrInvalid = lfs.ErrInvalid
	// ErrDiskFailed reports a command to a dead drive.
	ErrDiskFailed = fault.ErrDiskFailed
	// ErrMedium reports an unrecoverable medium error.
	ErrMedium = fault.ErrMedium
	// ErrTimeout reports a command timeout at the disk controller.
	ErrTimeout = fault.ErrTimeout
	// ErrLinkDown reports a transfer attempted over a downed network link.
	ErrLinkDown = fault.ErrLinkDown
	// ErrPacketLost reports a packet dropped by scripted loss.
	ErrPacketLost = fault.ErrPacketLost
	// ErrNetTimeout reports a stalled network endpoint exceeding its timeout.
	ErrNetTimeout = fault.ErrNetTimeout
	// ErrDeadline reports a client request abandoned at its deadline.
	ErrDeadline = fault.ErrDeadline
	// ErrArrayFailed reports reads or writes against an array whose
	// concurrent failures exceed its redundancy (two disks at Level 5,
	// three at Level 6): the data are gone until restored from elsewhere,
	// and the array refuses to fabricate them.
	ErrArrayFailed = raid.ErrArrayFailed
	// ErrNoFS reports a file-system call on a board that has not been
	// formatted or mounted.
	ErrNoFS = server.ErrNoFS
)

// RetryPolicy governs client-library retries: attempt budget, exponential
// backoff bounds, and an end-to-end deadline.  Retries are deterministic —
// the backoff doubles without jitter on the simulated clock.
type RetryPolicy = fault.RetryPolicy

// NetPort names a network attachment point a scripted fault targets.
type NetPort = fault.NetPort

// Network fault targets for FaultPlan.LinkDownAt and friends.
const (
	// PortUltranetRing is the shared Ultranet ring segment.
	PortUltranetRing = fault.PortRing
	// PortBoardHIPPI is one XBUS board's HIPPI endpoint (index = board).
	PortBoardHIPPI = fault.PortBoardHIPPI
	// PortClientNIC is one client workstation's NIC (index = attach order).
	PortClientNIC = fault.PortClientNIC
	// PortEther is the low-bandwidth Ethernet path.
	PortEther = fault.PortEther
)

// Option customizes the server assembly.
type Option func(*server.Config)

// WithBoards sets the number of XBUS controller boards (§2.1.2: "The
// bandwidth of the RAID-II storage server can be scaled by adding XBUS
// controller boards").
func WithBoards(n int) Option { return func(c *server.Config) { c.Boards = n } }

// WithDisksPerString sets the drives per SCSI string (3 in the paper's 24
// disk hardware configuration, 2 in the 16-disk LFS configuration).
func WithDisksPerString(n int) Option {
	return func(c *server.Config) { c.DisksPerString = n }
}

// WithRAIDLevel selects the array organization (§2.1: the XBUS board's
// parity engine implements RAID Level 5; other levels are ablations.
// Default Level 5).  Level 6 adds a Reed-Solomon Q column so the array
// survives two concurrent disk failures.
func WithRAIDLevel(l int) Option {
	return func(c *server.Config) { c.RAIDLevel = raid.Level(l) }
}

// WithStripeUnitKB sets the striping unit (§3.3: the measured array uses
// 64 KB stripe units; default 64 KB).
func WithStripeUnitKB(kb int) Option {
	return func(c *server.Config) { c.StripeUnitSectors = kb * 1024 / 512 }
}

// WithSegmentKB sets the LFS segment size exactly (§3.4: LFS writes the log
// in 960 KB segments, one full stripe of the 16-disk array).  By default
// each board derives its segment from its array: as many whole stripes as
// fit in 960 KB, or one stripe when a stripe is larger — 960 KB on the
// 16-disk Fig. 8 array, 1472 KB on the default 24-disk board, 896 KB at
// Level 6 on 16 disks — so every full segment is a full-stripe write.
func WithSegmentKB(kb int) Option {
	return func(c *server.Config) { c.LFS.SegBytes = kb << 10 }
}

// WithCache carves an XBUS-memory-resident block cache of the given size
// (in bytes) out of each board's 32 MB DRAM.  The datapath consults it
// before issuing array reads: resident blocks are served at crossbar-memory
// cost (hits still cross the crossbar to the HIPPI port), missing blocks
// fill from the array at full disk cost, and LFS segment writes stage
// through it so reads of freshly written data hit memory.  Cache capacity
// and transfer buffers share the DRAM honestly — an oversized cache fails
// NewServer.  (An extension beyond the paper, which dedicates the §2.1
// XBUS memory entirely to transfer buffers.)
func WithCache(bytes int) Option {
	return func(c *server.Config) { c.CacheBytes = bytes }
}

// WithCacheLineKB sets the cache line size (default 64 KB, one stripe
// unit).  Smaller lines suit small-block file-system traffic; larger lines
// suit sequential streams.
func WithCacheLineKB(kb int) Option {
	return func(c *server.Config) { c.CacheLineBytes = kb << 10 }
}

// WithNVRAM carves a battery-backed region of the given size (in bytes)
// out of each board's 32 MB DRAM, and the file system keeps its segment
// images there: as many as the region holds whole segments.  The region
// must hold at least one segment, which is 1472 KB on the default board
// (see WithSegmentKB): a smaller one fails NewServer with an error.  So the
// end of the log the disks lack survives a crash, and a mount after one
// rolls it forward.  File.WriteDurable writes into the open LFS segment,
// where reads see it, and acknowledges once it is committed there, without
// a seal.  When every image is in use a write waits for a seal to finish
// (visible as Degraded in NVRAMStats).  The carve-out shares DRAM with the
// cache and transfer buffers: a region so large it starves them fails
// NewServer too.  (A durability extension in the lineage the paper cites:
// Baker et al.'s non-volatile write caching on Sprite.)
func WithNVRAM(bytes int) Option {
	return func(c *server.Config) { c.NVRAMBytes = bytes }
}

// WithFaultPlan appends a deterministic fault plan's events to the plan
// armed when the server is assembled, exercising the §2.1 redundancy
// machinery (RAID parity, controller retries, degraded mode) and the
// network path (link flaps, packet loss, endpoint stalls).  Several
// WithFaultPlan options compose, in any order.  An identical plan on an
// identical workload yields a byte-identical trace.  In a Cluster, events
// carry a server index (Event.Server; ServerDownAt sets it) and route to
// that host.
func WithFaultPlan(plan FaultPlan) Option {
	return func(c *server.Config) { c.Faults.Events = append(c.Faults.Events, plan.Events...) }
}

// WithClientRetry sets the retry/timeout policy client workstations inherit
// when they attach, and the policy Cluster file operations use against
// transient ring faults.  The zero policy fails requests on the first
// fault.  (An availability extension beyond the paper's measurements.)
func WithClientRetry(pol RetryPolicy) Option {
	return func(c *server.Config) { c.ClientRetry = pol }
}

// WithServers sets the number of server hosts a Cluster assembles on its
// shared Ultranet ring (§2.1.2: "the bandwidth of the file server can be
// scaled by ... adding multiple storage servers"; default 1).  NewServer
// ignores it.
func WithServers(n int) Option {
	return func(c *server.Config) { c.Servers = n }
}

// WithStripeFragmentKB sets the cluster striping fragment — the bytes of a
// striped file one (server, board) pair stores per stripe (§5.2, Zebra's
// fragment unit).  The default is one LFS segment (960 KB with the paper's
// configuration), so each fragment occupies a contiguous stretch of a
// board's log and streams at full device bandwidth.  NewServer ignores it.
func WithStripeFragmentKB(kb int) Option {
	return func(c *server.Config) { c.StripeFragmentBytes = kb << 10 }
}

// WithCrossParity enables or disables the per-stripe parity fragment that
// lets a Cluster absorb the loss of a whole server host (§5.2, Zebra's
// parity fragment; default on).  Parity needs at least three servers;
// smaller fleets stripe without it.  NewServer ignores it.
func WithCrossParity(on bool) Option {
	return func(c *server.Config) { c.CrossParity = on }
}

// Fig8Geometry selects the paper's LFS measurement configuration: 16 disks,
// 64 KB striping, 960 KB segments.
func Fig8Geometry() Option {
	return func(c *server.Config) { *c = server.Fig8Config() }
}

// Server is an assembled RAID-II system plus its simulation engine.
type Server struct {
	sys  *server.System
	dead error // the panic that stopped the engine; see simulate
}

// NewServer assembles a RAID-II server.  With no options this is the
// paper's measured machine: one XBUS board, four Cougars, 24 IBM 0661
// disks as one RAID Level 5 group with 64 KB striping.
func NewServer(opts ...Option) (*Server, error) {
	cfg := server.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	sys, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Server{sys: sys}, nil
}

// Sys exposes the underlying assembly for advanced use (and for the
// benchmark harness).
func (s *Server) Sys() *server.System { return s.sys }

// Simulate runs fn as a simulated process, drives the simulation until all
// resulting activity completes, and returns the simulated time consumed.
// It may be called repeatedly; simulated time accumulates.  A panic in model
// code (an out-of-range board index, say) stops the machine: this call and
// every later one return it as an error wrapping the *sim.ProcPanic.
func (s *Server) Simulate(fn func(t *Task) error) (time.Duration, error) {
	return simulate(s.sys.Eng, &s.dead, "task", func(p *sim.Proc) error {
		return fn(&Task{p: p, sys: s.sys})
	})
}

// simulate runs body as a process named name on e until e drains.  A panic
// shuts e down and is latched in *dead, which every later call returns at
// once: harness.go's scope for an engine that outlives one call.
func simulate(e *sim.Engine, dead *error, name string, body func(p *sim.Proc) error) (d time.Duration, err error) {
	if *dead != nil {
		return 0, *dead
	}
	start := e.Now()
	defer func() {
		switch v := recover().(type) {
		case nil:
			return
		case *sim.ProcPanic:
			*dead = fmt.Errorf("raidii: simulation stopped: %w", v)
		default:
			*dead = fmt.Errorf("raidii: simulation stopped: panic outside any simulated process: %v", v)
		}
		e.Shutdown()
		d, err = e.Now().Sub(start), *dead
	}()
	e.Spawn(name, func(p *sim.Proc) { err = body(p) })
	return e.Run().Sub(start), err
}

// Now returns the current simulated time.
func (s *Server) Now() time.Duration { return time.Duration(s.sys.Eng.Now()) }

// Task is the handle model code uses inside Simulate: all file system and
// data path operations charge simulated time to the calling process.
// Board selects a board and exposes the full per-board surface; the Task
// methods act on every board at once.  In a Cluster, ClusterTask.Server
// returns one Task per fleet host.
type Task struct {
	p   *sim.Proc
	sys *server.System
}

// Board returns the handle for XBUS board i (0 unless WithBoards was used).
func (t *Task) Board(i int) *Board {
	return &Board{t: t, b: t.sys.Boards[i]}
}

// NumBoards returns the number of XBUS boards in the server.
func (t *Task) NumBoards() int { return len(t.sys.Boards) }

// everyBoard applies op to each board in turn, stopping at the first error.
func (t *Task) everyBoard(op func(*Board) error) error {
	for i := range t.sys.Boards {
		if err := op(t.Board(i)); err != nil {
			return err
		}
	}
	return nil
}

// FormatFS creates the LFS on every board.
func (t *Task) FormatFS() error { return t.everyBoard((*Board).FormatFS) }

// Sync makes all completed operations durable on every board.
func (t *Task) Sync() error { return t.everyBoard((*Board).Sync) }

// Checkpoint writes an LFS checkpoint on every board.
func (t *Task) Checkpoint() error { return t.everyBoard((*Board).Checkpoint) }

// Wait advances simulated time.
func (t *Task) Wait(d time.Duration) { t.p.Wait(d) }

// Elapsed returns simulated time since the start of the simulation.
func (t *Task) Elapsed() time.Duration { return time.Duration(t.p.Now()) }

// Board is the per-board handle: the full file system surface, the raw
// hardware data paths, and fault injection/recovery for the board's array.
type Board struct {
	t *Task
	b *server.Board
}

// Index returns the board's position in the server.
func (bd *Board) Index() int { return bd.b.Index }

// FormatFS creates the LFS on this board.
func (bd *Board) FormatFS() error { return bd.b.FormatFS(bd.t.p) }

// MountFS mounts the existing LFS from the board's array, replaying the
// last checkpoint and log tail — the recovery path after Crash.
func (bd *Board) MountFS() error { return bd.b.MountFS(bd.t.p) }

// Create makes a new file on this board and returns a handle.
func (bd *Board) Create(path string) (*File, error) {
	f, err := bd.b.CreateFS(bd.t.p, path)
	if err != nil {
		return nil, err
	}
	return &File{t: bd.t, f: f}, nil
}

// Open opens an existing file on this board.
func (bd *Board) Open(path string) (*File, error) {
	f, err := bd.b.OpenFS(bd.t.p, path)
	if err != nil {
		return nil, err
	}
	return &File{t: bd.t, f: f}, nil
}

// Mkdir creates a directory.
func (bd *Board) Mkdir(path string) error {
	fs, err := bd.b.Filesystem()
	if err != nil {
		return err
	}
	return fs.Mkdir(bd.t.p, path)
}

// Remove unlinks a file or empty directory.
func (bd *Board) Remove(path string) error {
	fs, err := bd.b.Filesystem()
	if err != nil {
		return err
	}
	return fs.Remove(bd.t.p, path)
}

// Rename moves a file or directory.
func (bd *Board) Rename(oldPath, newPath string) error {
	fs, err := bd.b.Filesystem()
	if err != nil {
		return err
	}
	return fs.Rename(bd.t.p, oldPath, newPath)
}

// ReadDir lists a directory.
func (bd *Board) ReadDir(path string) ([]lfs.DirEntry, error) {
	fs, err := bd.b.Filesystem()
	if err != nil {
		return nil, err
	}
	return fs.ReadDir(bd.t.p, path)
}

// Stat describes a path.
func (bd *Board) Stat(path string) (lfs.FileInfo, error) {
	fs, err := bd.b.Filesystem()
	if err != nil {
		return lfs.FileInfo{}, err
	}
	return fs.Stat(bd.t.p, path)
}

// Clean runs the segment cleaner until target free segments.
func (bd *Board) Clean(target int) (int, error) {
	fs, err := bd.b.Filesystem()
	if err != nil {
		return 0, err
	}
	return fs.Clean(bd.t.p, target)
}

// Sync makes all completed operations on this board durable.
func (bd *Board) Sync() error {
	if bd.b.FS == nil {
		return nil
	}
	return bd.b.FS.Sync(bd.t.p)
}

// Checkpoint writes an LFS checkpoint on this board.
func (bd *Board) Checkpoint() error {
	if bd.b.FS == nil {
		return nil
	}
	return bd.b.FS.Checkpoint(bd.t.p)
}

// HardwareRead performs the Figure 5 hardware system-level read (array ->
// XBUS memory -> HIPPI loop) without any file system.  Against an array
// whose failures exceed its redundancy it returns ErrArrayFailed.
func (bd *Board) HardwareRead(offsetBytes int64, size int) error {
	if err := bd.checkRange(offsetBytes, size); err != nil {
		return err
	}
	return bd.b.HardwareRead(bd.t.p, offsetBytes/512, size)
}

// HardwareWrite performs the raw high-bandwidth-path write of §2.3.
func (bd *Board) HardwareWrite(offsetBytes int64, size int) error {
	if err := bd.checkRange(offsetBytes, size); err != nil {
		return err
	}
	return bd.b.HardwareWrite(bd.t.p, offsetBytes/512, size)
}

// checkRange rejects hardware I/O [off, off+size) that does not lie within
// the array with ErrInvalid.
func (bd *Board) checkRange(off int64, size int) error {
	if c := bd.ArrayCapacity(); off < 0 || size < 0 || off > c-int64(size) {
		return fmt.Errorf("raidii: hardware I/O of %d bytes at %d outside the %d-byte array: %w", size, off, c, ErrInvalid)
	}
	return nil
}

// ArrayCapacity returns the logical capacity in bytes of the board's array.
func (bd *Board) ArrayCapacity() int64 {
	return bd.b.Array.Sectors() * int64(bd.b.Array.SectorSize())
}

// NumDisks returns the number of disks on the board.
func (bd *Board) NumDisks() int { return bd.b.NumDisks() }

// FailDisk kills device i of the board's array immediately: subsequent
// commands to the drive return ErrDiskFailed, the controller gives up
// without retrying, and the array serves the column degraded.
func (bd *Board) FailDisk(i int) error {
	if err := bd.b.Array.FailDisk(i); err != nil {
		return err
	}
	bd.b.Disks[i].Drive.Fail()
	return nil
}

// LatentError marks sectors [lba, lba+n) of the board's device i
// unreadable until rewritten; reads covering them are retried by the
// controller and then escalate to a disk failure.
func (bd *Board) LatentError(i int, lba int64, n int) {
	bd.b.Disks[i].Drive.AddLatentError(lba, n)
}

// StallString hangs the SCSI string holding device i for the given
// duration; commands issued meanwhile hit the controller's command timeout.
func (bd *Board) StallString(i int, stall time.Duration) {
	bd.b.Disks[i].StallString(bd.t.p.Now().Add(stall))
}

// DiskFailed reports whether the array has marked device i failed.
func (bd *Board) DiskFailed(i int) bool { return bd.b.Array.Failed(i) }

// ArrayStats returns the board array's operation counters, including
// degraded reads, device errors, disk failures, and rebuilt stripes.
func (bd *Board) ArrayStats() raid.Stats { return bd.b.Array.Stats() }

// CacheStats counts block-cache activity on one board: hits, misses,
// evictions, write overlays, staged lines and invalidations, plus hit and
// fill byte volumes.
type CacheStats = cache.Stats

// CacheStats returns the board's block-cache counters.  Without WithCache
// it is all zeros.
func (bd *Board) CacheStats() CacheStats {
	if bd.b.Cache == nil {
		return CacheStats{}
	}
	return bd.b.Cache.Stats()
}

// NVRAMStats describes a board's battery-backed region (its size, the
// segment images it holds and how many of them hold blocks the disks lack)
// and counts the durable writes that went through it.
type NVRAMStats = server.NVRAMStats

// LatencyStats condenses one request kind's telemetry for experiment
// results: the tail quantiles of the end-to-end latency histogram, the
// per-stage work breakdown and the outcome counts.  Stage means measure
// work (per-process exclusive time summed across the request's processes),
// so overlapped legs can sum past the wall-clock latency — like CPU seconds
// on a multicore.  Zero-valued when the engine had no telemetry attached or
// the kind completed no requests.
type LatencyStats = telemetry.LatencySummary

// NVRAMStats returns the board's NVRAM counters.  Without WithNVRAM it is
// all zeros.
func (bd *Board) NVRAMStats() NVRAMStats { return bd.b.NVRAMStats() }

// DrainNVRAM seals the open segment and waits for every seal in flight, so
// that no image in the NVRAM region holds a block the disks lack — the
// quiesce before a planned shutdown.
func (bd *Board) DrainNVRAM() error { return bd.b.DrainNVRAM(bd.t.p) }

// ReplaceDisk attaches a spare drive in place of failed device i and starts
// a background hot rebuild that contends with foreground traffic; the
// returned handle reports completion.
func (bd *Board) ReplaceDisk(i int) (*HotRebuild, error) {
	rb, err := bd.b.ReplaceDisk(i)
	if err != nil {
		return nil, err
	}
	return &HotRebuild{t: bd.t, rb: rb}, nil
}

// Crash drops the board's volatile state — LFS segment buffers and every
// block-cache line — simulating a server crash; MountFS recovers from the
// log, and post-crash reads pay full disk cost until the cache rewarms.
// With WithNVRAM the segment images survive, and MountFS rolls them forward.
func (bd *Board) Crash() { bd.b.Crash() }

// HotRebuild is a handle on a background hot rebuild started by ReplaceDisk.
type HotRebuild struct {
	t  *Task
	rb *raid.Rebuild
}

// Done reports whether the rebuild has finished.
func (r *HotRebuild) Done() bool { return r.rb.Done() }

// Wait blocks (in simulated time) until the rebuild completes and returns
// the number of stripes rebuilt; stripes no write has reached are skipped.
func (r *HotRebuild) Wait() (int64, error) { return r.rb.Wait(r.t.p) }

// Scrub starts one background parity-scrub pass over the board's array: a
// low-priority patrol that yields to foreground requests, verifies each
// stripe's parity, and repairs latent sectors and stale parity in place —
// before a demand read or a rebuild trips over them.
func (bd *Board) Scrub() (*ScrubRun, error) {
	sc, err := bd.b.Array.StartScrub(raid.ScrubConfig{})
	if err != nil {
		return nil, err
	}
	return &ScrubRun{t: bd.t, sc: sc}, nil
}

// ScrubStats summarizes the board's patrol activity so far.
type ScrubStats struct {
	// Stripes the patrol verified.
	Stripes uint64
	// Repairs is how many columns (latent sectors or stale parity) the
	// patrol rewrote.
	Repairs uint64
}

// ScrubStats returns the board's accumulated scrub counters.
func (bd *Board) ScrubStats() ScrubStats {
	st := bd.b.Array.Stats()
	return ScrubStats{Stripes: st.ScrubbedStripes, Repairs: st.ScrubRepairs}
}

// ScrubRun is a handle on a background patrol pass started by Scrub.
type ScrubRun struct {
	t  *Task
	sc *raid.Scrub
}

// Done reports whether the patrol pass has finished.
func (r *ScrubRun) Done() bool { return r.sc.Done() }

// Wait blocks (in simulated time) until the pass completes and returns the
// stripes verified and repairs made.
func (r *ScrubRun) Wait() (stripes, repairs uint64) { return r.sc.Wait(r.t.p) }

// File is an open file on the server, accessed over the high-bandwidth
// path (reads stream from the array into HIPPI network buffers in XBUS
// memory, writes land in LFS segment buffers).
type File struct {
	t *Task
	f *server.FSFile
}

// Write stores data at off through the LFS write path and returns the
// simulated duration of the transfer.
func (f *File) Write(off int64, data []byte) (time.Duration, error) {
	start := f.t.p.Now()
	err := f.f.Board.FSWrite(f.t.p, f.f, off, data)
	return f.t.p.Now().Sub(start), err
}

// WriteDurable stores data at off and returns only once the bytes are
// durable: written and committed into the open LFS segment, whose image is
// battery-backed when WithNVRAM is configured (no segment seal waited
// for), else written through LFS and sealed to the array before
// acknowledging (a segment write — the synchronous small-write penalty
// NVRAM exists to hide).  Either way a later Read sees the bytes.
func (f *File) WriteDurable(off int64, data []byte) (time.Duration, error) {
	start := f.t.p.Now()
	err := f.f.Board.DurableWrite(f.t.p, f.f, off, data)
	return f.t.p.Now().Sub(start), err
}

// Read moves n bytes at off through the high-bandwidth read path,
// returning the bytes read (short only at end of file; the caller's to keep)
// and the simulated duration of the transfer.
func (f *File) Read(off int64, n int) ([]byte, time.Duration, error) {
	start := f.t.p.Now()
	data, err := f.f.Board.FSRead(f.t.p, f.f, off, n)
	return bytes.Clone(data), f.t.p.Now().Sub(start), err
}

// ReadEthernet moves n bytes over the low-bandwidth standard-mode path
// (XBUS -> host memory -> Ethernet) and returns the simulated duration.
func (f *File) ReadEthernet(off int64, n int) (time.Duration, error) {
	start := f.t.p.Now()
	err := f.f.Board.EtherRead(f.t.p, f.f, off, n)
	return f.t.p.Now().Sub(start), err
}

// Size returns the file's size.
func (f *File) Size() (int64, error) { return f.f.File.Size(f.t.p) }
