package raidii

import (
	"fmt"
	"time"

	"raidii/internal/hippi"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/zebra"
)

// Cluster is the §2.1.2 scale-out of the file server: several RAID-II
// server hosts on one shared Ultranet ring, presented as a single striped
// store.  A file created through a ClusterTask is cut into fragments and
// placed across (server, board) pairs Zebra-style (§5.2), with one rotating
// parity fragment per stripe so the loss of an entire host is absorbed by
// reconstruction and repaired by RebuildServer — the whole-host analogue of
// a RAID Level 5 disk failure.
//
// Cluster takes the same options as NewServer, applied to every host, plus
// the fleet options WithServers, WithStripeFragmentKB and WithCrossParity.
// A one-server Cluster behaves like NewServer with striping overhead;
// NewServer remains the single-host special case with Task and Board
// unchanged.
type Cluster struct {
	fl    *server.Fleet
	cfg   server.Config
	ep    *hippi.Endpoint
	store *zebra.Store
	dead  error // the panic that stopped the engine; see simulate
}

// NewCluster assembles a fleet of identical RAID-II servers.  With no
// options it is one paper-configuration host; WithServers(n) scales it
// out.
func NewCluster(opts ...Option) (*Cluster, error) {
	cfg := server.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	fl, err := server.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	// The cluster client's ring attachment runs at full ring speed — the
	// client is an Ultranet-attached machine, like the §3.4 workstations.
	nic := sim.NewLink(fl.Eng, "cluster-client-nic", cfg.HIPPI.RingMBps, 0)
	cl := &Cluster{
		fl:  fl,
		cfg: cfg,
		ep:  &hippi.Endpoint{Name: "cluster-client", Out: nic, In: nic, Setup: cfg.HIPPI.PacketSetup},
	}
	fl.RegisterClientEndpoint(cl.ep)
	return cl, nil
}

// Fleet exposes the underlying assembly for advanced use (and for the
// benchmark harness).
func (c *Cluster) Fleet() *server.Fleet { return c.fl }

// NumServers returns the number of server hosts in the cluster.
func (c *Cluster) NumServers() int { return len(c.fl.Servers) }

// Now returns the current simulated time.
func (c *Cluster) Now() time.Duration { return time.Duration(c.fl.Eng.Now()) }

// Simulate runs fn as a simulated process, drives the simulation until all
// resulting activity completes, and returns the simulated time consumed.
// It may be called repeatedly; simulated time accumulates.  A panic in model
// code stops the machine, as in Server.Simulate.
func (c *Cluster) Simulate(fn func(t *ClusterTask) error) (time.Duration, error) {
	return simulate(c.fl.Eng, &c.dead, "cluster-task", func(p *sim.Proc) error {
		return fn(&ClusterTask{p: p, cl: c})
	})
}

// ClusterTask is the handle model code uses inside Cluster.Simulate.
// Striped files (Create, Open) spread across the whole fleet; Server
// returns an ordinary Task scoped to one host for the full per-board
// surface — scrub, cache stats, fault injection and recovery all work per
// board exactly as on a standalone server.
type ClusterTask struct {
	p  *sim.Proc
	cl *Cluster
}

// NumServers returns the number of server hosts in the cluster.
func (t *ClusterTask) NumServers() int { return t.cl.NumServers() }

// Server returns a single-host Task for server i, exposing the standalone
// API (Board, FormatFS, per-board files) against that host.
func (t *ClusterTask) Server(i int) *Task {
	return &Task{p: t.p, sys: t.cl.fl.Servers[i]}
}

// FormatFS creates the LFS on every board of every server — required
// before striped files can be created.
func (t *ClusterTask) FormatFS() error {
	for i := 0; i < t.NumServers(); i++ {
		if err := t.Server(i).FormatFS(); err != nil {
			return err
		}
	}
	return nil
}

// store lazily builds the striping layer; every board needs a formatted
// file system first.
func (t *ClusterTask) store() (*zebra.Store, error) {
	if t.cl.store == nil {
		z, err := zebra.New(t.cl.fl, t.cl.ep, zebra.Config{
			FragmentBytes: t.cl.cfg.StripeFragmentBytes,
			Parity:        t.cl.cfg.CrossParity,
		})
		if err != nil {
			return nil, err
		}
		t.cl.store = z
	}
	return t.cl.store, nil
}

// Create makes a new striped file across the fleet and returns a handle.
func (t *ClusterTask) Create(name string) (*ClusterFile, error) {
	z, err := t.store()
	if err != nil {
		return nil, err
	}
	if err := z.Create(t.p, name); err != nil {
		return nil, err
	}
	return &ClusterFile{t: t, name: name}, nil
}

// Open returns a handle on an existing striped file.
func (t *ClusterTask) Open(name string) (*ClusterFile, error) {
	z, err := t.store()
	if err != nil {
		return nil, err
	}
	if _, err := z.Size(name); err != nil {
		return nil, err
	}
	return &ClusterFile{t: t, name: name}, nil
}

// Sync flushes every board's file system on every server, making all
// striped data durable.
func (t *ClusterTask) Sync() error {
	z, err := t.store()
	if err != nil {
		return err
	}
	return z.SyncAll(t.p)
}

// StripeBytes returns the data bytes one full cluster stripe carries
// (fragment size times the number of data fragments).
func (t *ClusterTask) StripeBytes() (int, error) {
	z, err := t.store()
	if err != nil {
		return 0, err
	}
	return z.StripeBytes(), nil
}

// StaleFragments reports how many fragments on server i missed writes
// while the host was down and await RebuildServer.
func (t *ClusterTask) StaleFragments(i int) (int, error) {
	z, err := t.store()
	if err != nil {
		return 0, err
	}
	if i < 0 || i >= z.Width() {
		return 0, fmt.Errorf("raidii: stale fragments: no server %d", i)
	}
	return z.StaleFragments(i), nil
}

// RebuildServer reconstructs every stale fragment on server i from the
// surviving hosts' fragments and parity, returning the number rebuilt.
// Call it after the host is restored (ServerUpAt); until then reads route
// around the stale fragments through parity.
func (t *ClusterTask) RebuildServer(i int) (int, error) {
	z, err := t.store()
	if err != nil {
		return 0, err
	}
	return z.RebuildServer(t.p, i)
}

// KillServer takes server host i down immediately — the whole-host
// analogue of Board.FailDisk.  Every board endpoint on the host stops
// answering; striped reads reconstruct through parity and striped writes
// go degraded, recording stale fragments.  Scripted alternatives:
// FaultPlan.ServerDownAt.
func (t *ClusterTask) KillServer(i int) { t.cl.fl.Servers[i].SetDown(true) }

// RestoreServer brings host i back.  Fragments that missed writes during
// the outage stay stale (reads keep routing around them) until
// RebuildServer repairs them.
func (t *ClusterTask) RestoreServer(i int) { t.cl.fl.Servers[i].SetDown(false) }

// ServerDown reports whether host i is currently down.
func (t *ClusterTask) ServerDown(i int) bool { return t.cl.fl.Servers[i].Down() }

// Wait advances simulated time.
func (t *ClusterTask) Wait(d time.Duration) { t.p.Wait(d) }

// Elapsed returns simulated time since the start of the simulation.
func (t *ClusterTask) Elapsed() time.Duration { return time.Duration(t.p.Now()) }

// ClusterFile is an open striped file: reads and writes fan out across
// every server in the fleet transparently, and a single down host is
// absorbed by cross-server parity.
type ClusterFile struct {
	t    *ClusterTask
	name string
	buf  []byte // what Read lends: grows to the largest read, rewritten by the next
}

// Name returns the file's cluster-wide name.
func (f *ClusterFile) Name() string { return f.name }

// Write stores data at off (stripe-aligned; see StripeBytes) across the
// fleet and returns the simulated duration of the transfer.  Fragments
// travel to all servers in parallel, so aggregate bandwidth scales with
// the fleet; with cross parity a single down host degrades the write
// instead of failing it.
func (f *ClusterFile) Write(off int64, data []byte) (time.Duration, error) {
	z, err := f.t.store()
	if err != nil {
		return 0, err
	}
	start := f.t.p.Now()
	// Placement is pure, so a resend lands on the same (server, board,
	// offset): retrying a striped operation under the fleet's client retry
	// policy is always safe.
	err = f.t.cl.cfg.ClientRetry.Run(f.t.p, "cluster", "raidii: striped write", func() error {
		return z.Write(f.t.p, f.name, off, data)
	})
	return time.Duration(f.t.p.Now().Sub(start)), err
}

// Read fetches n bytes at off from across the fleet, returning the bytes
// (short only at end of file) and the simulated duration.  Fragments
// arrive from all servers in parallel; a stripe on a down host is
// reconstructed from the survivors and parity.
//
// The bytes are lent, as bufio.Scanner.Bytes lends its token: they are the
// handle's own buffer, which grows to the handle's largest read, and they
// stay valid until the handle's next Read, which overwrites them.  Copy
// them to keep them longer.  Each handle lends its own buffer, so two
// handles on one file never overwrite each other's bytes.
func (f *ClusterFile) Read(off int64, n int) ([]byte, time.Duration, error) {
	z, err := f.t.store()
	if err != nil {
		return nil, 0, err
	}
	if off < 0 || n < 0 {
		return nil, 0, fmt.Errorf("raidii: striped read %s: [%d, +%d): %w", f.name, off, n, zebra.ErrRange)
	}
	start := f.t.p.Now()
	got := 0
	err = f.t.cl.cfg.ClientRetry.Run(f.t.p, "cluster", "raidii: striped read", func() error {
		size, err := z.Size(f.name)
		if err != nil {
			return err
		}
		if want := min(int64(n), max(size-off, 0)); int64(len(f.buf)) < want {
			f.buf = make([]byte, want)
		}
		got, err = z.ReadInto(f.t.p, f.name, off, f.buf[:min(n, len(f.buf))])
		return err
	})
	dur := time.Duration(f.t.p.Now().Sub(start))
	if err != nil {
		return nil, dur, err
	}
	return f.buf[:got], dur, nil
}

// Size returns the striped file's logical size.
func (f *ClusterFile) Size() (int64, error) {
	z, err := f.t.store()
	if err != nil {
		return 0, err
	}
	return z.Size(f.name)
}
