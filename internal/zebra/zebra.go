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
// Placement is pure arithmetic (stripe s puts its parity on server s mod N
// and its k-th data fragment on the k-th remaining server in index order),
// so reads and writes are idempotent: a retried operation lands on the same
// (server, board, offset) and the fleet stays deterministic.
package zebra

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"raidii/internal/bytepath"
	"raidii/internal/fault"
	"raidii/internal/hippi"
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
	// size does buy is few, large runs per fragment, which getFragment's
	// read cuts into track-sized device commands that each disk serves in
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

// file is one striped file: a data fragment file and (with parity on) a
// parity fragment file per (server, board) pair, the logical size, and
// per-server sets of stripes whose fragment on that server missed a write
// while the host was down.  Data and parity are segregated so each board's
// data file stays dense — a client streaming a file reads every board
// sequentially instead of skipping over the rotating parity fragments.
type file struct {
	size    int64
	backing [][]*server.FSFile // [server][board] data fragments
	parity  [][]*server.FSFile // [server][board] parity fragments (nil without parity)
	stale   []map[int64]bool   // [server] -> stripe set
}

// Store stripes files across the hosts of a fleet.
type Store struct {
	cfg   Config
	fleet *server.Fleet
	ep    *hippi.Endpoint // the client's ring endpoint
	files map[string]*file
	// frags recycles the client's transient fragment buffers: write parity,
	// a degraded read's parity, a rebuild's survivors and result, and a
	// partly read stripe.  A rebuild keeps the most in flight, Width per
	// stripe in its window.
	frags bytepath.FreeList
}

// New creates a store over the fleet's servers, each of which must have a
// formatted file system on every board.  With fewer than three servers
// parity is disabled (a parity fragment needs two independent survivors).
func New(fl *server.Fleet, clientEP *hippi.Endpoint, cfg Config) (*Store, error) {
	if len(fl.Servers) == 0 {
		return nil, errors.New("zebra: empty fleet")
	}
	if cfg.Parity && len(fl.Servers) < 3 {
		cfg.Parity = false
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
	return &Store{
		cfg: cfg, fleet: fl, ep: clientEP, files: make(map[string]*file),
		frags: bytepath.NewFreeList(writeWindow * len(fl.Servers)),
	}, nil
}

// Width returns the number of servers in the stripe group.
func (z *Store) Width() int { return len(z.fleet.Servers) }

// dataWidth is the number of data fragments per stripe.
func (z *Store) dataWidth() int {
	if z.cfg.Parity {
		return z.Width() - 1
	}
	return z.Width()
}

// StripeBytes returns the data bytes one full stripe carries.
func (z *Store) StripeBytes() int { return z.dataWidth() * z.cfg.FragmentBytes }

// parityServer returns the server holding stripe s's parity fragment, -1
// when parity is off.
func (z *Store) parityServer(s int64) int {
	if !z.cfg.Parity {
		return -1
	}
	return int(s % int64(z.Width()))
}

// dataIndex returns which data fragment server srv holds in a stripe whose
// parity server is pIdx (srv must not be pIdx): data fragments go to the
// servers in index order, skipping the parity server.
func dataIndex(srv, pIdx int) int {
	if pIdx >= 0 && srv > pIdx {
		return srv - 1
	}
	return srv
}

// fragLoc places stripe s's fragment on server srv: the board rotates
// across the host's XBUS boards, and offsets stay dense within the board's
// data file (or, when srv is the stripe's parity server, its parity file).
// Keeping the two roles in separate files means a streaming client reads
// each board's data file strictly sequentially — no gaps where a rotating
// parity fragment would sit — which is what lets the LFS coalesce the reads
// into full-bandwidth device transfers.
func (z *Store) fragLoc(f *file, srv int, s int64) (bf *server.FSFile, board int, off int64) {
	nb := int64(len(z.fleet.Servers[srv].Boards))
	b := s % nb
	if z.parityServer(s) == srv {
		// Stripes for which srv holds parity on board b form one residue
		// class mod lcm(nb, width), so the dense index is s / lcm.
		l := lcm(nb, int64(z.Width()))
		return f.parity[srv][b], int(b), (s / l) * int64(z.cfg.FragmentBytes)
	}
	// Dense data index: stripes t < s on this board, minus those whose
	// fragment here was parity.
	idx := s/nb - z.paritiesBefore(s, nb, srv)
	return f.backing[srv][b], int(b), idx * int64(z.cfg.FragmentBytes)
}

// paritiesBefore counts stripes t < s that land on s's board of server srv
// with srv as their parity server — pure arithmetic over the residue class
// the two rotations share, so placement stays idempotent.
func (z *Store) paritiesBefore(s, nb int64, srv int) int64 {
	if !z.cfg.Parity {
		return 0
	}
	n := int64(z.Width())
	l := lcm(nb, n)
	// Find the first stripe on this board whose parity server is srv; the
	// rest recur every lcm stripes.  The loop is over one small period.
	r := int64(-1)
	for t := s % nb; t < l; t += nb {
		if t%n == int64(srv) {
			r = t
			break
		}
	}
	if r < 0 || s <= r {
		return 0
	}
	return (s-r-1)/l + 1
}

func lcm(a, b int64) int64 {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// stripeSize returns how many data bytes of f stripe s holds.
func (z *Store) stripeSize(f *file, s int64) int {
	sb := int64(z.StripeBytes())
	rem := f.size - s*sb
	if rem <= 0 {
		return 0
	}
	if rem > sb {
		rem = sb
	}
	return int(rem)
}

// fragSize returns the size of data fragment k in a stripe carrying sz
// bytes: fragment 0 fills first, so earlier fragments are never shorter
// than later ones and fragment 0's size bounds the parity fragment.
func (z *Store) fragSize(sz, k int) int {
	n := sz - k*z.cfg.FragmentBytes
	if n < 0 {
		n = 0
	}
	if n > z.cfg.FragmentBytes {
		n = z.cfg.FragmentBytes
	}
	return n
}

// holdSize returns the fragment size server srv stores for a stripe of sz
// data bytes with parity server pIdx (the parity fragment matches fragment
// 0, the largest).
func (z *Store) holdSize(sz, srv, pIdx int) int {
	if srv == pIdx {
		return z.fragSize(sz, 0)
	}
	return z.fragSize(sz, dataIndex(srv, pIdx))
}

// Create opens the per-(server, board) backing files for a striped file.
func (z *Store) Create(p *sim.Proc, name string) error {
	if _, ok := z.files[name]; ok {
		return fmt.Errorf("zebra: create %s: file exists", name)
	}
	f := &file{}
	for si, sys := range z.fleet.Servers {
		var row, prow []*server.FSFile
		for bi, b := range sys.Boards {
			bf, err := b.CreateFS(p, fmt.Sprintf("/zebra-%s-s%db%d", name, si, bi))
			if err != nil {
				return fmt.Errorf("zebra: create %s: %w", name, err)
			}
			row = append(row, bf)
			if z.cfg.Parity {
				pf, err := b.CreateFS(p, fmt.Sprintf("/zebra-%s-s%db%dp", name, si, bi))
				if err != nil {
					return fmt.Errorf("zebra: create %s: %w", name, err)
				}
				prow = append(prow, pf)
			}
		}
		f.backing = append(f.backing, row)
		f.parity = append(f.parity, prow)
		f.stale = append(f.stale, make(map[int64]bool))
	}
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
		n += len(f.stale[srv])
	}
	return n
}

// Write stores data at off, which must be stripe-aligned (the client
// batches writes into whole log segments, Zebra's central idea).  Each
// stripe's fragments — including the client-computed parity fragment —
// travel to their servers in parallel over the ring, so aggregate write
// bandwidth multiplies with the fleet size.  With parity on, one down
// server is tolerated: its fragment is recorded stale and rebuilt later.
func (z *Store) Write(p *sim.Proc, name string, off int64, data []byte) error {
	f, ok := z.files[name]
	if !ok {
		return fmt.Errorf("zebra: no such file %s", name)
	}
	sb := int64(z.StripeBytes())
	if off%sb != 0 {
		return fmt.Errorf("zebra: write %s: offset %d not stripe-aligned (stripe is %d bytes)", name, off, sb)
	}
	if len(data) == 0 {
		return nil
	}
	// Several stripes stay in flight so the per-stripe barrier of the
	// slowest host does not serialize the whole transfer.
	nStripes := (len(data) + int(sb) - 1) / int(sb)
	err := z.inFlight(p, "zebra-write", writeWindow, nStripes, func(q *sim.Proc, i int) error {
		lo := i * int(sb)
		hi := min(lo+int(sb), len(data))
		return z.writeStripe(q, f, off/sb+int64(i), data[lo:hi])
	})
	if err != nil {
		return fmt.Errorf("zebra: write %s: %w", name, err)
	}
	if end := off + int64(len(data)); end > f.size {
		f.size = end
	}
	return nil
}

// writeStripe sends one stripe's fragments to their hosts in parallel.
func (z *Store) writeStripe(p *sim.Proc, f *file, stripe int64, data []byte) error {
	n := z.Width()
	pIdx := z.parityServer(stripe)
	downCount := 0
	for s := 0; s < n; s++ {
		if z.fleet.Servers[s].Down() {
			downCount++
		}
	}
	if downCount > 0 && (pIdx < 0 || downCount > 1) {
		return fmt.Errorf("stripe %d: %d servers down, stripe unwritable: %w", stripe, downCount, fault.ErrLinkDown)
	}

	// Client-side parity: XOR of the data fragments, padded to fragment 0's
	// size — so any single missing fragment is the XOR of all the others.
	var parity []byte
	if pIdx >= 0 {
		parity = z.frags.Get(z.fragSize(len(data), 0))
		clear(parity)
		defer z.frags.Put(parity)
		for k := 0; k < z.dataWidth(); k++ {
			lo, n := k*z.cfg.FragmentBytes, z.fragSize(len(data), k)
			if n == 0 {
				break // tail stripe: the remaining fragments are empty
			}
			bytepath.XOR(parity[:n], data[lo:lo+n])
		}
	}

	g := p.Fork()
	for s := 0; s < n; s++ {
		payload := parity
		if s != pIdx {
			k := dataIndex(s, pIdx)
			fsz := z.fragSize(len(data), k)
			if fsz == 0 {
				continue // tail stripe: this server holds nothing yet
			}
			lo := k * z.cfg.FragmentBytes
			payload = data[lo : lo+fsz]
		}
		if z.fleet.Servers[s].Down() {
			f.stale[s][stripe] = true
			continue
		}
		g.Go("zebra-frag", func(q *sim.Proc) error {
			return z.putFragment(q, f, s, stripe, payload)
		})
	}
	return g.Wait(p)
}

// putFragment ships one fragment over the ring and stores it in the
// (server, board) backing file; success refreshes a stale fragment.
func (z *Store) putFragment(p *sim.Proc, f *file, srv int, stripe int64, data []byte) error {
	bf, bi, off := z.fragLoc(f, srv, stripe)
	b := z.fleet.Servers[srv].Boards[bi]
	if _, err := z.fleet.Ultra.Send(p, z.ep, b.HEP, len(data)); err != nil {
		return fmt.Errorf("fragment to s%d: %w", srv, err)
	}
	if _, err := bf.File.WriteAt(p, data, off); err != nil {
		return fmt.Errorf("fragment store on s%d: %w", srv, err)
	}
	delete(f.stale[srv], stripe)
	return nil
}

// getFragment reads one fragment on its server into dst, the fragment's
// place at the client, and ships it there one track of the board's drives at
// a time.  The fragment is one read whose device runs are cut into
// track-sized commands, all in flight at once, and each piece goes on the
// ring as soon as its own command returns: the ring carries the first tracks
// of every disk's share while the disks still read the rest, so the client's
// ring attachment drains the fragment alongside the disks rather than after
// them.
func (z *Store) getFragment(p *sim.Proc, f *file, srv int, stripe int64, dst []byte) error {
	bf, bi, off := z.fragLoc(f, srv, stripe)
	sys := z.fleet.Servers[srv]
	b := sys.Boards[bi]
	send := func(q *sim.Proc, _, n int) error {
		_, err := z.fleet.Ultra.Send(q, b.HEP, z.ep, n)
		return err
	}
	track := sys.Cfg.DiskSpec.SectorsPerTrack * sys.Cfg.DiskSpec.SectorSize
	n, err := bf.File.ReadAtPieces(p, off, dst, track, send)
	if err == nil && n < len(dst) {
		clear(dst[n:]) // what the backing file does not hold reads as zeros
		err = send(p, n, len(dst)-n)
	}
	if err != nil {
		return fmt.Errorf("fragment from s%d: %w", srv, err)
	}
	return nil
}

// fetchFragments runs getFragment for every server s with a non-empty
// places[s], in parallel, each in a process called procName.
func (z *Store) fetchFragments(p *sim.Proc, procName string, f *file, stripe int64, places [][]byte) error {
	g := p.Fork()
	for s, dst := range places {
		if len(dst) == 0 {
			continue
		}
		g.Go(procName, func(q *sim.Proc) error {
			return z.getFragment(q, f, s, stripe, dst)
		})
	}
	return g.Wait(p)
}

// Read fetches n bytes at off (clamped to the file size) and returns them.
// Fragments arrive from all servers in parallel and several stripes stay
// in flight, so the client drains the fleet's aggregate bandwidth rather
// than paying per-stripe latency serially.  A stripe whose fragment lives
// on a down (or stale) server is reconstructed from the survivors and the
// parity fragment — the whole-host analogue of degraded-mode array reads.
func (z *Store) Read(p *sim.Proc, name string, off int64, n int) ([]byte, error) {
	f, ok := z.files[name]
	if !ok {
		return nil, fmt.Errorf("zebra: no such file %s", name)
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("zebra: read %s: negative range", name)
	}
	if off > f.size {
		off = f.size
	}
	if off+int64(n) > f.size {
		n = int(f.size - off)
	}
	if n == 0 {
		return nil, nil
	}
	sb := int64(z.StripeBytes())
	out := make([]byte, n)
	first, last := off/sb, (off+int64(n)-1)/sb

	// Enough stripes stay in flight that every host sees work even while
	// another host's fragment of an earlier stripe is still draining — the
	// per-stripe join otherwise idles the fast hosts behind the slow one.
	err := z.inFlight(p, "zebra-read", readWindow, int(last-first+1), func(q *sim.Proc, i int) error {
		s := first + int64(i)
		lo, sz := s*sb, int64(z.stripeSize(f, s)) // stripe's logical start and length
		from, to := max(off-lo, 0), min(off+int64(n)-lo, sz)
		part := out[lo+from-off : lo+to-off]
		if to-from == sz {
			// The request covers the stripe: it lands straight in its part
			// of the result.
			return z.readStripe(q, f, s, part)
		}
		// The first or last stripe, covered partially: through a buffer of
		// its own, and the overlap is copied.
		buf := z.frags.Get(int(sz))
		defer z.frags.Put(buf)
		err := z.readStripe(q, f, s, buf)
		if err == nil {
			copy(part, buf[from:to])
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("zebra: read %s: %w", name, err)
	}
	return out, nil
}

// readStripe reads stripe s's data into buf, reconstructing through parity
// when a server is unavailable.  A fragment fetch that dies mid-flight (the
// host went down between the liveness check and the transfer) gets one
// degraded retry — by then the liveness check sees the dead host and routes
// around it.
func (z *Store) readStripe(p *sim.Proc, f *file, stripe int64, buf []byte) error {
	err := z.tryReadStripe(p, f, stripe, buf)
	if err != nil && errors.Is(err, fault.ErrLinkDown) {
		err = z.tryReadStripe(p, f, stripe, buf)
	}
	return err
}

func (z *Store) tryReadStripe(p *sim.Proc, f *file, stripe int64, buf []byte) error {
	sz := len(buf)
	n := z.Width()
	pIdx := z.parityServer(stripe)

	// Which servers hold a fragment of this stripe, and which of those are
	// unavailable (host down, or fragment stale from a missed write).
	unavailable := func(s int) bool {
		return z.fleet.Servers[s].Down() || f.stale[s][stripe]
	}
	missing := -1
	for s := 0; s < n; s++ {
		if z.holdSize(sz, s, pIdx) == 0 || !unavailable(s) {
			continue
		}
		if missing >= 0 || pIdx < 0 {
			return fmt.Errorf("stripe %d unrecoverable: more fragments lost than parity covers: %w", stripe, fault.ErrLinkDown)
		}
		missing = s
	}

	// Every data fragment's place is its part of buf.  Healthy stripes skip
	// the parity fragment; a stripe missing a data fragment needs it for the
	// XOR, in a buffer of its own.
	places := make([][]byte, n)
	for s := 0; s < n; s++ {
		fsz := z.holdSize(sz, s, pIdx)
		switch {
		case fsz == 0: // tail stripe: this server holds nothing yet
		case s != pIdx:
			lo := dataIndex(s, pIdx) * z.cfg.FragmentBytes
			places[s] = buf[lo : lo+fsz]
		case missing >= 0 && missing != pIdx:
			places[s] = z.frags.Get(fsz)
			defer z.frags.Put(places[s])
		}
	}
	var lost []byte
	if missing >= 0 {
		lost, places[missing] = places[missing], nil
	}
	if err := z.fetchFragments(p, "zebra-read-frag", f, stripe, places); err != nil {
		return err
	}
	if lost != nil {
		// Parity is the XOR of the data fragments, so any single fragment is
		// the XOR of all the others.
		xorFragments(lost, places)
	}
	return nil
}

// RebuildServer reconstructs every stale fragment on server srv from the
// survivors and rewrites it, returning the number of fragments rebuilt.
// Call it after a ServerUp restores the host; until then reads route
// around the stale fragments through parity.  Stale stripes are repaired
// several at a time, as many as a write keeps in flight.  On an error no
// further stripe is started, and the count is of the fragments rewritten
// by then: the ones that no longer count as stale.
func (z *Store) RebuildServer(p *sim.Proc, srv int) (int, error) {
	if srv < 0 || srv >= z.Width() {
		return 0, fmt.Errorf("zebra: rebuild: no server %d", srv)
	}
	if z.fleet.Servers[srv].Down() {
		return 0, fmt.Errorf("zebra: rebuild s%d: host still down: %w", srv, fault.ErrLinkDown)
	}
	// One window spans every file's stale stripes, so it stays full from
	// one file to the next.
	type staleFrag struct {
		f      *file
		stripe int64
	}
	var todo []staleFrag
	for _, name := range slices.Sorted(maps.Keys(z.files)) {
		f := z.files[name]
		for _, s := range slices.Sorted(maps.Keys(f.stale[srv])) {
			todo = append(todo, staleFrag{f, s})
		}
	}
	rebuilt := 0
	err := z.inFlight(p, "zebra-rebuild", writeWindow, len(todo), func(q *sim.Proc, i int) error {
		f, s := todo[i].f, todo[i].stripe
		payload, err := z.reconstructFragment(q, f, srv, s)
		if err == nil {
			err = z.putFragment(q, f, srv, s, payload)
			z.frags.Put(payload) // WriteAt copied it
		}
		if err != nil {
			return fmt.Errorf("zebra: rebuild s%d stripe %d: %w", srv, s, err)
		}
		rebuilt++
		return nil
	})
	return rebuilt, err
}

// reconstructFragment computes the fragment server srv holds for stripe s
// as the XOR of every other server's fragment (data or parity alike).  The
// result comes from z.frags, and the caller puts it back when done.
func (z *Store) reconstructFragment(p *sim.Proc, f *file, srv int, stripe int64) ([]byte, error) {
	sz := z.stripeSize(f, stripe)
	pIdx := z.parityServer(stripe)
	if pIdx < 0 {
		return nil, errors.New("no parity to reconstruct from")
	}
	got := make([][]byte, z.Width())
	defer func() {
		for _, b := range got {
			if b != nil {
				z.frags.Put(b)
			}
		}
	}()
	for s := range got {
		fsz := z.holdSize(sz, s, pIdx)
		if s == srv || fsz == 0 {
			continue
		}
		if z.fleet.Servers[s].Down() || f.stale[s][stripe] {
			return nil, fmt.Errorf("source fragment on s%d unavailable: %w", s, fault.ErrLinkDown)
		}
		got[s] = z.frags.Get(fsz)
	}
	if err := z.fetchFragments(p, "zebra-rebuild-frag", f, stripe, got); err != nil {
		return nil, err
	}
	lost := z.frags.Get(z.holdSize(sz, srv, pIdx))
	xorFragments(lost, got)
	return lost, nil
}

// The stripes a read and a write keep in flight.  A rebuild rewrites what
// it reconstructs, so it keeps as many as a write.
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

// xorFragments sets lost to the XOR of the other fragments of its stripe
// (nil entries are skipped): the one fragment that is absent.  No fragment
// is shorter than a later one, so lost takes as much of each as it has.
func xorFragments(lost []byte, others [][]byte) {
	clear(lost)
	for _, f := range others {
		m := min(len(f), len(lost))
		bytepath.XOR(lost[:m], f[:m])
	}
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
