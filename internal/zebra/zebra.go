// Package zebra is the cluster's placement and routing core: Zebra-style
// striping of files across a fleet of RAID-II servers, the §5.2 future-work
// direction.  "Its use with RAID-II would provide a mechanism for striping
// high-bandwidth file accesses over multiple network connections, and
// therefore across multiple XBUS boards."  Following Hartman & Ousterhout's
// design, the client cuts a file into fixed-size fragments, places one
// fragment of every stripe on each server host (rotating the XBUS board
// within the host), computes one parity fragment per stripe client-side,
// and rotates the parity fragment across the hosts — so the loss of an
// entire server is absorbed by reconstruction from the survivors, exactly
// as a RAID Level 5 array absorbs a disk loss.  Servers "perform very
// simple operations, merely storing blocks of the logical log".
//
// So a striped file is a raid.Array whose devices are the servers (host):
// the array owns the stripe code — parity, degraded reads, which stripes a
// down host missed, and their rebuild — and a host device only stores and
// ships the fragments it is handed.  Placement is pure arithmetic, so reads
// and writes are idempotent: a retried operation lands on the same
// (server, board, offset) and the fleet stays deterministic.
package zebra

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"raidii/internal/fault"
	"raidii/internal/hippi"
	"raidii/internal/raid"
	"raidii/internal/server"
	"raidii/internal/sim"
)

// Config selects the striping geometry.
type Config struct {
	// FragmentBytes is the size of one stripe fragment — the unit a single
	// (server, board) pair stores per stripe.  Zero picks the size of the
	// first board's LFS segment.  That does not put a fragment in one
	// segment: a segment's first block is its summary (a 960 KB segment
	// holds 956 KB of data), and the backing file's indirect
	// and inode blocks share the log, so a fragment spans two or more
	// segments and a read of it resolves to several device runs.  What the
	// size does buy is few, large runs per fragment, which a host's read
	// cuts into track-sized device commands that each disk serves in
	// sequence; parity fragments live in backing files of their own, so
	// they never punch holes into the data layout.
	FragmentBytes int
	// Parity stores one parity fragment per stripe so a whole-server loss
	// is survivable.  Needs at least three servers; smaller fleets fall
	// back to plain striping.
	Parity bool
}

// DefaultConfig stripes segment-sized fragments with parity.
func DefaultConfig() Config {
	return Config{Parity: true}
}

// ErrRange reports an offset outside what a striped file can address: a
// negative one, or a write past the last stripe.
var ErrRange = errors.New("zebra: offset out of range")

// maxStripes bounds a striped file: 64 K stripes, 60 GB per server of
// 960 KB fragments, beyond what any fleet's boards hold.
const maxStripes = 1 << 16

// file is one striped file: its logical size, and the array over one host
// device per server.
type file struct {
	size  int64
	a     *raid.Array
	hosts []*host
}

// Store stripes files across the hosts of a fleet.
type Store struct {
	cfg   Config
	level raid.Level // each file's array: Level 5, or Level 0 without parity
	fleet *server.Fleet
	ep    *hippi.Endpoint // the client's ring endpoint
	files map[string]*file
	// first is the first file's array: every file takes its column scratch
	// from first's free list, so the client keeps one.
	first *raid.Array
	// rebuild is the window RebuildServer reads stripes in, across files.
	rebuild *sim.Server
}

// New creates a store over the fleet's servers, each of which must have a
// formatted file system on every board.  With fewer than three servers
// parity is disabled (a parity fragment needs two independent survivors).
func New(fl *server.Fleet, clientEP *hippi.Endpoint, cfg Config) (*Store, error) {
	if len(fl.Servers) == 0 {
		return nil, errors.New("zebra: empty fleet")
	}
	for si, sys := range fl.Servers {
		for _, b := range sys.Boards {
			if _, err := b.Filesystem(); err != nil {
				return nil, fmt.Errorf("zebra: server %d: %w", si, err)
			}
		}
	}
	if cfg.FragmentBytes <= 0 {
		cfg.FragmentBytes = fl.Servers[0].Boards[0].FS.SegmentBytes()
	}
	level := raid.Level0
	if cfg.Parity && len(fl.Servers) >= 3 {
		level = raid.Level5
	}
	return &Store{
		cfg: cfg, level: level, fleet: fl, ep: clientEP, files: make(map[string]*file),
		rebuild: sim.NewServer(fl.Eng, "zebra-rebuild-window", readWindow),
	}, nil
}

// Width returns the number of servers in the stripe group.
func (z *Store) Width() int { return len(z.fleet.Servers) }

// StripeBytes returns the data bytes one full stripe carries.
func (z *Store) StripeBytes() int { return (z.Width() - z.level.Checks()) * z.cfg.FragmentBytes }

// Create opens the per-(server, board) backing files for a striped file and
// builds its array.
func (z *Store) Create(p *sim.Proc, name string) error {
	if _, ok := z.files[name]; ok {
		return fmt.Errorf("zebra: create %s: file exists", name)
	}
	f := &file{}
	devs := make([]raid.Dev, z.Width())
	for si, sys := range z.fleet.Servers {
		h := &host{z: z, f: f, srv: si}
		for bi, b := range sys.Boards {
			bf, err := b.CreateFS(p, fmt.Sprintf("/zebra-%s-s%db%d", name, si, bi))
			if err != nil {
				return fmt.Errorf("zebra: create %s: %w", name, err)
			}
			h.data = append(h.data, bf)
			if z.level.Checks() > 0 {
				pf, err := b.CreateFS(p, fmt.Sprintf("/zebra-%s-s%db%dp", name, si, bi))
				if err != nil {
					return fmt.Errorf("zebra: create %s: %w", name, err)
				}
				h.check = append(h.check, pf)
			}
		}
		f.hosts = append(f.hosts, h)
		devs[si] = h
	}
	// The client computes parity itself, at no simulated cost.
	a, err := raid.New(z.fleet.Eng, devs, raid.Config{Level: z.level, StripeUnitSectors: z.cfg.FragmentBytes}, raid.SoftXOR{})
	if err != nil {
		return fmt.Errorf("zebra: create %s: %w", name, err)
	}
	if z.first == nil {
		z.first = a
	}
	a.Share(z.first, z.rebuild)
	f.a = a
	z.files[name] = f
	return nil
}

// Size returns the named file's logical size.
func (z *Store) Size(name string) (int64, error) {
	f, ok := z.files[name]
	if !ok {
		return 0, fmt.Errorf("zebra: no such file %s", name)
	}
	return f.size, nil
}

// StaleFragments returns how many of server srv's fragments missed writes
// while the host was down and await RebuildServer.
func (z *Store) StaleFragments(srv int) int {
	n := 0
	for _, f := range z.files {
		n += f.a.Missed(srv)
	}
	return n
}

// track brings f's array up to date with the fleet before an operation: a
// host that went down is failed, one that came back returns, live for every
// stripe it did not miss.  A host that dies during the operation fails its
// commands, and the array escalates it then.
func (z *Store) track(f *file) error {
	for i, sys := range z.fleet.Servers {
		switch down := sys.Down(); {
		case down && !f.a.Failed(i):
			if err := f.a.FailDisk(i); err != nil {
				return fmt.Errorf("s%d down: %w: %w", i, err, fault.ErrLinkDown)
			}
		case !down && f.a.Failed(i):
			f.a.ReturnDisk(i)
		}
	}
	return nil
}

// unreachable types an array's data-loss error as what it is in a fleet:
// the servers holding the lost fragments are unreachable, for now.
func unreachable(err error) error {
	if errors.Is(err, raid.ErrArrayFailed) {
		return fmt.Errorf("%w: %w", err, fault.ErrLinkDown)
	}
	return err
}

// Write stores data at off, which must be stripe-aligned (the client
// batches writes into whole log segments, Zebra's central idea).  Each
// stripe is one array write: a whole stripe's fragments — including the
// client-computed parity fragment — travel to their servers in parallel
// over the ring, so aggregate write bandwidth multiplies with the fleet
// size.  With parity on, one down server is tolerated: its fragment is
// missed and rebuilt later.
func (z *Store) Write(p *sim.Proc, name string, off int64, data []byte) error {
	f, ok := z.files[name]
	if !ok {
		return fmt.Errorf("zebra: no such file %s", name)
	}
	if off < 0 || off+int64(len(data)) > f.a.Sectors() {
		return fmt.Errorf("zebra: write %s: [%d, +%d): %w", name, off, len(data), ErrRange)
	}
	sb := int64(z.StripeBytes())
	if off%sb != 0 {
		return fmt.Errorf("zebra: write %s: offset %d not stripe-aligned (stripe is %d bytes)", name, off, sb)
	}
	if len(data) == 0 {
		return nil
	}
	if err := z.track(f); err != nil {
		return fmt.Errorf("zebra: write %s: %w", name, err)
	}
	// Several stripes stay in flight so the per-stripe barrier of the
	// slowest host does not serialize the whole transfer.
	nStripes := (len(data) + int(sb) - 1) / int(sb)
	err := z.inFlight(p, "zebra-write", writeWindow, nStripes, func(q *sim.Proc, i int) error {
		lo := i * int(sb)
		hi := min(lo+int(sb), len(data))
		return f.a.Write(q, off+int64(lo), data[lo:hi])
	})
	if err != nil {
		return fmt.Errorf("zebra: write %s: %w", name, unreachable(err))
	}
	if end := off + int64(len(data)); end > f.size {
		f.size = end
	}
	return nil
}

// ReadInto reads the named file's bytes at off into dst, clamped to the
// file size, and returns how many it read.  It writes every byte of
// dst[:n] — the data, its reconstruction, or the zeros a backing file does
// not hold — so dst may be a recycled buffer.  Fragments arrive from all
// servers in parallel and several stripes stay in flight, so the client
// drains the fleet's aggregate bandwidth rather than paying per-stripe
// latency serially.  A stripe whose fragment lives on a down (or stale)
// server is reconstructed from the survivors and the parity fragment — the
// whole-host analogue of degraded-mode array reads.
func (z *Store) ReadInto(p *sim.Proc, name string, off int64, dst []byte) (int, error) {
	f, ok := z.files[name]
	if !ok {
		return 0, fmt.Errorf("zebra: no such file %s", name)
	}
	if off < 0 {
		return 0, fmt.Errorf("zebra: read %s: negative range: %w", name, ErrRange)
	}
	n := int(min(int64(len(dst)), max(f.size-off, 0)))
	if n == 0 {
		return 0, nil
	}
	if err := z.track(f); err != nil {
		return 0, fmt.Errorf("zebra: read %s: %w", name, err)
	}
	sb := int64(z.StripeBytes())
	first, last := off/sb, (off+int64(n)-1)/sb

	// Enough stripes stay in flight that every host sees work even while
	// another host's fragment of an earlier stripe is still draining — the
	// per-stripe join otherwise idles the fast hosts behind the slow one.
	err := z.inFlight(p, "zebra-read", readWindow, int(last-first+1), func(q *sim.Proc, i int) error {
		s := first + int64(i)
		lo, hi := max(s*sb, off), min((s+1)*sb, off+int64(n))
		return f.a.ReadInto(q, lo, dst[lo-off:hi-off])
	})
	if err != nil {
		return 0, fmt.Errorf("zebra: read %s: %w", name, unreachable(err))
	}
	return n, nil
}

// Read returns the n bytes at off that ReadInto reads, in a new buffer.
func (z *Store) Read(p *sim.Proc, name string, off int64, n int) ([]byte, error) {
	size, err := z.Size(name)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("zebra: read %s: negative range: %w", name, ErrRange)
	}
	buf := make([]byte, min(int64(n), max(size-off, 0)))
	if n, err = z.ReadInto(p, name, off, buf); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// RebuildServer reconstructs every stale fragment on server srv from the
// survivors and rewrites it, returning the number of fragments rebuilt.
// Call it after a ServerUp restores the host; until then reads route
// around the stale fragments through parity.  Every file's array resyncs
// the host at once, and their rebuilds share one window of stripes
// reading.  On an error no further stripe is started, and the count is of
// the fragments rewritten by then: the ones that no longer count as stale.
func (z *Store) RebuildServer(p *sim.Proc, srv int) (int, error) {
	if srv < 0 || srv >= z.Width() {
		return 0, fmt.Errorf("zebra: rebuild: no server %d", srv)
	}
	if z.fleet.Servers[srv].Down() {
		return 0, fmt.Errorf("zebra: rebuild s%d: host still down: %w", srv, fault.ErrLinkDown)
	}
	var todo []*file
	for _, name := range slices.Sorted(maps.Keys(z.files)) {
		if f := z.files[name]; f.a.Missed(srv) > 0 {
			if err := z.track(f); err != nil {
				return 0, fmt.Errorf("zebra: rebuild s%d: %w", srv, err)
			}
			todo = append(todo, f)
		}
	}
	rebuilt := 0
	g := p.Fork()
	for _, f := range todo {
		g.Go("zebra-rebuild", func(q *sim.Proc) error {
			n, err := f.a.Resync(q, srv)
			rebuilt += int(n)
			return err
		})
	}
	if err := g.Wait(p); err != nil {
		return rebuilt, fmt.Errorf("zebra: rebuild s%d: %w", srv, unreachable(err))
	}
	return rebuilt, nil
}

// The stripes a read and a write keep in flight.  A rebuild's read stage
// keeps as many reading as a read, and its writes follow behind them.
const (
	readWindow  = 8
	writeWindow = 4
)

// inFlight runs fn(q, i) for every i in [0, n), each in a process called
// name+"-stripe", at most width of them at once, and returns the first
// error.  Once one has failed no further i is started.
func (z *Store) inFlight(p *sim.Proc, name string, width, n int, fn func(q *sim.Proc, i int) error) error {
	window := sim.NewServer(z.fleet.Eng, name+"-window", width)
	g := p.Fork()
	for i := 0; i < n; i++ {
		window.Acquire(p)
		if g.Err() != nil {
			window.Release()
			break
		}
		g.Go(name+"-stripe", func(q *sim.Proc) error {
			defer window.Release()
			return fn(q, i)
		})
	}
	return g.Wait(p)
}

// SyncAll flushes every board's file system on every server in parallel,
// making all striped data durable; the client's write is complete only
// after this.
func (z *Store) SyncAll(p *sim.Proc) error {
	g := p.Fork()
	for _, sys := range z.fleet.Servers {
		for _, b := range sys.Boards {
			g.Go("zebra-sync", b.FS.Sync)
		}
	}
	if err := g.Wait(p); err != nil {
		return fmt.Errorf("zebra: sync: %w", err)
	}
	return nil
}
