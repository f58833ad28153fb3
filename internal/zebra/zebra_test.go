package zebra

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/hippi"
	"raidii/internal/raid"
	"raidii/internal/server"
	"raidii/internal/sim"
)

// newFleet builds a striped fleet with formatted file systems on every
// board of every server, plus a client ring endpoint.
func newFleet(t testing.TB, servers, boards int) (*server.Fleet, *Store) {
	t.Helper()
	var z *Store
	fl := runFleet(t, servers, boards, fault.Plan{}, func(_ *sim.Proc, _ *server.Fleet, zs *Store) { z = zs })
	return fl, z
}

// runFleet builds a fleet of servers hosts with boards boards each under
// the fault plan, then formats every board, builds the store and runs
// script in one engine run: a scripted fault waits in the same event queue,
// so a separate formatting run would fire it early.
func runFleet(t testing.TB, servers, boards int, plan fault.Plan, script func(p *sim.Proc, fl *server.Fleet, z *Store)) *server.Fleet {
	t.Helper()
	cfg := server.Fig8Config()
	cfg.Servers, cfg.Boards, cfg.Faults = servers, boards, plan
	return runFleetOf(t, cfg, script)
}

// runFleetOf is runFleet over a fleet of cfg.
func runFleetOf(t testing.TB, cfg server.Config, script func(p *sim.Proc, fl *server.Fleet, z *Store)) *server.Fleet {
	t.Helper()
	fl, err := server.NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Eng.Shutdown) // parked processes would keep the fleet reachable
	nic := sim.NewLink(fl.Eng, "client-nic", 100, 0)
	ep := &hippi.Endpoint{Name: "client", Out: nic, In: nic, Setup: 200 * time.Microsecond}
	fl.Eng.Spawn("fmt", func(p *sim.Proc) {
		for _, sys := range fl.Servers {
			for _, b := range sys.Boards {
				if err := b.FormatFS(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		z, err := New(fl, ep, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		script(p, fl, z)
	})
	fl.Eng.Run()
	return fl
}

// pattern fills n deterministic, position-dependent bytes so a misplaced
// fragment shows up as a byte mismatch, not just a wrong length.
func pattern(off int64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((off + int64(i)) * 7)
	}
	return out
}

func TestStripedWriteReadRoundTrip(t *testing.T) {
	fl, z := newFleet(t, 3, 2)
	fl.Eng.Spawn("t", func(p *sim.Proc) {
		if err := z.Create(p, "video"); err != nil {
			t.Fatal(err)
		}
		data := pattern(0, 4<<20)
		if err := z.Write(p, "video", 0, data); err != nil {
			t.Fatal(err)
		}
		got, err := z.Read(p, "video", 0, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("striped round trip corrupted the data")
		}
		// Unaligned sub-range through the middle of the stripe map.
		sub, err := z.Read(p, "video", 1000, 300000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sub, data[1000:301000]) {
			t.Fatal("sub-range read corrupted the data")
		}
	})
	fl.Eng.Run()
}

func TestMoreServersMoreBandwidth(t *testing.T) {
	rate := func(servers int) float64 {
		fl, z := newFleet(t, servers, 1)
		var r float64
		fl.Eng.Spawn("t", func(p *sim.Proc) {
			if err := z.Create(p, "f"); err != nil {
				t.Fatal(err)
			}
			if err := z.Write(p, "f", 0, pattern(0, 16<<20)); err != nil {
				t.Fatal(err)
			}
			if err := z.SyncAll(p); err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if _, err := z.Read(p, "f", 0, 16<<20); err != nil {
				t.Fatal(err)
			}
			r = float64(16<<20) / p.Now().Sub(start).Seconds() / 1e6
		})
		fl.Eng.Run()
		return r
	}
	// What more servers shorten is the disk phase.  The 16 MB cross the one
	// ring into the client's 100 MB/s NIC (ultranet and client-nic in the
	// -util table: 168 ms busy at either size) whatever the number of senders,
	// and that is 168 of the 5-server read's 255 ms (65.8 MB/s) against 168
	// of the 3-server read's 327 (51.2 MB/s): a ratio of 1.28, which can only
	// fall as the servers get faster.  (It read 1.37 while lfs:mu, held across
	// pointer-block reads from the device, bounded both.)
	three, five := rate(3), rate(5)
	if five <= three*1.2 {
		t.Fatalf("5 servers (%.1f MB/s) should clearly beat 3 (%.1f MB/s)", five, three)
	}
}

func TestDegradedReadReconstructs(t *testing.T) {
	fl, z := newFleet(t, 4, 1)
	data := pattern(0, 3<<20)
	fl.Eng.Spawn("t", func(p *sim.Proc) {
		if err := z.Create(p, "f"); err != nil {
			t.Fatal(err)
		}
		if err := z.Write(p, "f", 0, data); err != nil {
			t.Fatal(err)
		}
		// Kill one whole host: every stripe now misses either a data
		// fragment (reconstructed from parity) or its parity fragment.
		fl.Servers[1].SetDown(true)
		got, err := z.Read(p, "f", 0, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("degraded read did not reconstruct the dead server's fragments")
		}
		// A second host loss exceeds what single parity covers.
		fl.Servers[2].SetDown(true)
		if _, err := z.Read(p, "f", 0, len(data)); err == nil {
			t.Fatal("read with two dead servers should fail")
		}
	})
	fl.Eng.Run()
}

// TestDegradedReadInPlace: with any one host down, whole-file reads and
// ranges that start and end inside stripes return the written bytes — full
// stripes reconstructed straight into the result, partial ones through
// their own buffer, and a tail stripe whose lost fragment is shorter than
// the fragments it is rebuilt from.
func TestDegradedReadInPlace(t *testing.T) {
	fl, z := newFleet(t, 4, 1)
	data := tailedPattern(z)
	fl.Eng.Spawn("t", func(p *sim.Proc) {
		if err := z.Create(p, "f"); err != nil {
			t.Fatal(err)
		}
		if err := z.Write(p, "f", 0, data); err != nil {
			t.Fatal(err)
		}
		for dead := 0; dead < 4; dead++ {
			fl.Servers[dead].SetDown(true)
			for _, r := range inPlaceRanges(z) {
				got, err := z.Read(p, "f", int64(r[0]), r[1])
				if err != nil || !bytes.Equal(got, data[r[0]:r[0]+r[1]]) {
					t.Fatalf("server %d down: read(%d,+%d) returned wrong bytes (err %v)", dead, r[0], r[1], err)
				}
			}
			fl.Servers[dead].SetDown(false)
		}
	})
	fl.Eng.Run()
}

// tailedPattern is two whole stripes of pattern and a tail stripe whose
// second fragment is a third of the first and whose third is empty.
func tailedPattern(z *Store) []byte {
	frag := z.StripeBytes() / 3
	return pattern(3, 2*z.StripeBytes()+frag+frag/3)
}

// inPlaceRanges are reads over a file of tailedPattern(z): whole, partial
// at both ends, and in the tail stripe.
func inPlaceRanges(z *Store) [][2]int {
	sb := z.StripeBytes()
	frag := sb / 3
	return [][2]int{
		{0, 2*sb + frag + frag/3},
		{frag / 2, 2 * sb}, // partial, whole, partial
		{sb, sb + 7},       // whole, then 7 bytes of the tail
		{2*sb + frag - 5, frag/3 + 5},
	}
}

func TestStaleWriteAndRebuild(t *testing.T) {
	fl, z := newFleet(t, 4, 1)
	data := pattern(0, 2<<20)
	fresh := pattern(9, 2<<20)
	fl.Eng.Spawn("t", func(p *sim.Proc) {
		if err := z.Create(p, "f"); err != nil {
			t.Fatal(err)
		}
		if err := z.Write(p, "f", 0, data); err != nil {
			t.Fatal(err)
		}
		// Overwrite while a host is down: its fragments go stale but the
		// write succeeds degraded.
		fl.Servers[2].SetDown(true)
		if err := z.Write(p, "f", 0, fresh); err != nil {
			t.Fatal(err)
		}
		if z.StaleFragments(2) == 0 {
			t.Fatal("writes during the outage should leave stale fragments")
		}
		// Reads route around the stale fragments through parity even after
		// the host is back.
		fl.Servers[2].SetDown(false)
		got, err := z.Read(p, "f", 0, len(fresh))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fresh) {
			t.Fatal("post-outage read served stale data")
		}
		// Rebuild rewrites the stale fragments from the survivors.
		n, err := z.RebuildServer(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || z.StaleFragments(2) != 0 {
			t.Fatalf("rebuild left %d stale fragments (rebuilt %d)", z.StaleFragments(2), n)
		}
		// Prove the rebuilt fragments are real: kill a different host so
		// reconstruction must now lean on server 2's copies.
		fl.Servers[0].SetDown(true)
		got, err = z.Read(p, "f", 0, len(fresh))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fresh) {
			t.Fatal("rebuilt fragments are wrong")
		}
	})
	fl.Eng.Run()
}

// TestRAID6FleetStripesWholeSegments: on a fleet of Fig. 8 boards at Level
// 6, each board's segment is one 896 KB stripe of its array, and that is
// the store's default fragment.  A striped file written while a host is
// down reads back whole after RebuildServer brings its fragments up to date
// and another host dies.
func TestRAID6FleetStripesWholeSegments(t *testing.T) {
	cfg := server.Fig8Config()
	cfg.Servers, cfg.RAIDLevel = 4, raid.Level6
	runFleetOf(t, cfg, func(p *sim.Proc, fl *server.Fleet, z *Store) {
		if got := z.cfg.FragmentBytes; got != 896<<10 {
			t.Fatalf("fragment %d KB, want 896 KB", got>>10)
		}
		data := pattern(5, 3*z.StripeBytes()+z.StripeBytes()/2)
		if err := z.Create(p, "f"); err != nil {
			t.Fatal(err)
		}
		fl.Servers[1].SetDown(true)
		if err := z.Write(p, "f", 0, data); err != nil {
			t.Fatal(err)
		}
		fl.Servers[1].SetDown(false)
		if n, err := z.RebuildServer(p, 1); err != nil || n == 0 || z.StaleFragments(1) != 0 {
			t.Fatalf("rebuild: %d fragments, err %v, %d still stale", n, err, z.StaleFragments(1))
		}
		for _, dead := range []int{0, 1, 2, 3} {
			fl.Servers[dead].SetDown(true)
			got, err := z.Read(p, "f", 0, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("server %d down: read back wrong (err %v)", dead, err)
			}
			fl.Servers[dead].SetDown(false)
		}
	})
}

// staleStripes writes stripes whole stripes while server victim is down and
// brings it back: every one of them leaves a stale fragment on it.
func staleStripes(t *testing.T, p *sim.Proc, fl *server.Fleet, z *Store, victim, stripes int) {
	t.Helper()
	if err := z.Create(p, "f"); err != nil {
		t.Fatal(err)
	}
	fl.Servers[victim].SetDown(true)
	if err := z.Write(p, "f", 0, pattern(0, stripes*z.StripeBytes())); err != nil {
		t.Fatal(err)
	}
	fl.Servers[victim].SetDown(false)
	if got := z.StaleFragments(victim); got != stripes {
		t.Fatalf("degraded write left %d stale fragments, want %d", got, stripes)
	}
}

// TestFullRewriteClearsStale: stripes a host missed while down, written
// again in full once it is back, are current on it again: no fragment is
// left stale, and they read back with another host down.
func TestFullRewriteClearsStale(t *testing.T) {
	const victim, stripes = 1, 3
	runFleet(t, 4, 1, fault.Plan{}, func(p *sim.Proc, fl *server.Fleet, z *Store) {
		staleStripes(t, p, fl, z, victim, stripes)
		data := pattern(7, stripes*z.StripeBytes())
		if err := z.Write(p, "f", 0, data); err != nil {
			t.Fatal(err)
		}
		if n := z.StaleFragments(victim); n != 0 {
			t.Fatalf("%d fragments still stale after a full rewrite", n)
		}
		fl.Servers[victim+1].SetDown(true)
		if got, err := z.Read(p, "f", 0, len(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back with s%d down: wrong bytes (err %v)", victim+1, err)
		}
	})
}

// TestRebuildWindow: a whole-host rebuild keeps stripes in flight, so it
// finishes well inside the time the same fragments take one at a time; and
// when a source host dies partway, it reports the loss and counts exactly
// the fragments it took off the stale set.
func TestRebuildWindow(t *testing.T) {
	const victim, source, stripes = 2, 0, 8
	var start, end sim.Time
	runFleet(t, 4, 1, fault.Plan{}, func(p *sim.Proc, fl *server.Fleet, z *Store) {
		staleStripes(t, p, fl, z, victim, stripes)
		start = p.Now()
		if n, err := z.RebuildServer(p, victim); err != nil || n != stripes {
			t.Fatalf("rebuild: %d fragments, err %v; want %d", n, err, stripes)
		}
		end = p.Now()
	})
	// The same file rebuilt through a window one stripe wide.
	var serial sim.Duration
	runFleet(t, 4, 1, fault.Plan{}, func(p *sim.Proc, fl *server.Fleet, z *Store) {
		z.rebuild = sim.NewServer(fl.Eng, "zebra-rebuild-window", 1)
		staleStripes(t, p, fl, z, victim, stripes)
		t0 := p.Now()
		if n, err := z.RebuildServer(p, victim); err != nil || n != stripes {
			t.Fatalf("serial rebuild: %d fragments, err %v; want %d", n, err, stripes)
		}
		serial = p.Now().Sub(t0)
	})
	if windowed := end.Sub(start); windowed >= serial*6/10 {
		t.Errorf("windowed rebuild took %v, serial %v: want under 0.6x", windowed, serial)
	}

	plan := fault.Plan{}.ServerDownAt(time.Duration(start+(end-start)/2), source)
	runFleet(t, 4, 1, plan, func(p *sim.Proc, fl *server.Fleet, z *Store) {
		staleStripes(t, p, fl, z, victim, stripes)
		n, err := z.RebuildServer(p, victim)
		if !errors.Is(err, fault.ErrLinkDown) {
			t.Fatalf("rebuild with source s%d lost: err %v, want ErrLinkDown", source, err)
		}
		if !fl.Servers[source].Down() {
			t.Fatal("the scripted ServerDownAt did not fire during the rebuild")
		}
		if left := z.StaleFragments(victim); n != stripes-left || n == 0 || left == 0 {
			t.Fatalf("rebuild reports %d fragments; %d of %d left stale", n, left, stripes)
		}
	})
}

// TestLevel6FleetLosesTwoServers: at Level 6, five servers lose two, and
// every byte reads back, whether written before the loss or during it.  Both
// return, RebuildServer repairs each, and no fragment is left stale; then
// any two may go down.
func TestLevel6FleetLosesTwoServers(t *testing.T) {
	runFleet(t, 5, 1, fault.Plan{}, func(p *sim.Proc, fl *server.Fleet, z *Store) {
		z.level = raid.Level6
		sb := z.StripeBytes()
		data := pattern(1, 5*sb+sb/3)
		readBack := func(what string) {
			t.Helper()
			got, err := z.Read(p, "f", 0, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: read back wrong (err %v)", what, err)
			}
		}
		if err := z.Create(p, "f"); err != nil {
			t.Fatal(err)
		}
		if err := z.Write(p, "f", 0, data[:2*sb]); err != nil {
			t.Fatal(err)
		}
		fl.Servers[1].SetDown(true)
		fl.Servers[3].SetDown(true)
		if err := z.Write(p, "f", 2*int64(sb), data[2*sb:]); err != nil {
			t.Fatal(err)
		}
		readBack("s1 and s3 down")
		fl.Servers[1].SetDown(false)
		fl.Servers[3].SetDown(false)
		for _, srv := range []int{1, 3} {
			stale := z.StaleFragments(srv)
			if n, err := z.RebuildServer(p, srv); err != nil || stale == 0 || n != stale {
				t.Fatalf("rebuild s%d: %d of %d stale fragments, err %v", srv, n, stale, err)
			}
			if left := z.StaleFragments(srv); left != 0 {
				t.Fatalf("s%d: %d fragments still stale", srv, left)
			}
		}
		for a := 0; a < 5; a++ {
			for b := a + 1; b < 5; b++ {
				fl.Servers[a].SetDown(true)
				fl.Servers[b].SetDown(true)
				readBack(fmt.Sprintf("s%d and s%d down after the rebuild", a, b))
				fl.Servers[a].SetDown(false)
				fl.Servers[b].SetDown(false)
			}
		}
	})
}

// TestWriteRejectsNegativeOffset: a negative offset is refused before any
// I/O with ErrRange, stripe-aligned or not, on hosts of two boards, where
// placing a fragment of stripe -1 would pick board -1.
func TestWriteRejectsNegativeOffset(t *testing.T) {
	runFleet(t, 4, 2, fault.Plan{}, func(p *sim.Proc, fl *server.Fleet, z *Store) {
		if err := z.Create(p, "f"); err != nil {
			t.Fatal(err)
		}
		sb := z.StripeBytes()
		for _, off := range []int64{-int64(sb), -1} {
			start := p.Now()
			if err := z.Write(p, "f", off, pattern(0, sb)); !errors.Is(err, ErrRange) {
				t.Fatalf("write at %d: err %v, want ErrRange", off, err)
			}
			if size, _ := z.Size("f"); size != 0 || p.Now() != start {
				t.Fatalf("write at %d: size %d, took %v", off, size, p.Now().Sub(start))
			}
		}
	})
}

func TestSmallFleetsDropParity(t *testing.T) {
	// Parity needs three hosts; smaller fleets fall back to plain striping
	// and a host loss is then fatal for writes.
	fl, z := newFleet(t, 2, 1)
	fl.Eng.Spawn("t", func(p *sim.Proc) {
		if err := z.Create(p, "f"); err != nil {
			t.Fatal(err)
		}
		if err := z.Write(p, "f", 0, pattern(0, 1<<20)); err != nil {
			t.Fatal(err)
		}
		fl.Servers[1].SetDown(true)
		if err := z.Write(p, "f", 0, pattern(0, 1<<20)); err == nil {
			t.Fatal("parity-less fleet should refuse degraded writes")
		}
	})
	fl.Eng.Run()
}

func TestErrorsOnUnknownFile(t *testing.T) {
	fl, z := newFleet(t, 3, 1)
	fl.Eng.Spawn("t", func(p *sim.Proc) {
		if err := z.Write(p, "ghost", 0, []byte{1}); err == nil {
			t.Error("write to unknown file should fail")
		}
		if _, err := z.Read(p, "ghost", 0, 1024); err == nil {
			t.Error("read of unknown file should fail")
		}
		if err := z.Create(p, "dup"); err != nil {
			t.Fatal(err)
		}
		if err := z.Create(p, "dup"); err == nil {
			t.Error("duplicate create should fail")
		}
		if err := z.Write(p, "dup", 1, []byte{1}); err == nil {
			t.Error("unaligned write should fail")
		}
	})
	fl.Eng.Run()
}

// stripedFile writes stripes whole stripes of pattern to a new file on a
// 4-server, 1-board fleet and makes them durable.
func stripedFile(tb testing.TB, stripes int) (*server.Fleet, *Store, []byte) {
	tb.Helper()
	fl, z := newFleet(tb, 4, 1)
	data := pattern(0, stripes*z.StripeBytes())
	fl.Eng.Spawn("seed", func(p *sim.Proc) {
		if err := z.Create(p, "f"); err != nil {
			tb.Fatal(err)
		}
		if err := z.Write(p, "f", 0, data); err != nil {
			tb.Fatal(err)
		}
		if err := z.SyncAll(p); err != nil {
			tb.Fatal(err)
		}
	})
	fl.Eng.Run()
	return fl, z, data
}

// allocPerByte runs prepare and then op twice in one process — the first
// pass warms caches, process shells and the store's free list — and
// returns what the second op allocated per byte of n.  Each reading first
// joins every drive's copy in flight, which would otherwise materialize
// its pages on either side of the reading as the host schedules it.
func allocPerByte(t *testing.T, fl *server.Fleet, n int, prepare, op func(p *sim.Proc) error) float64 {
	t.Helper()
	var before, after runtime.MemStats
	readMemStats := func(m *runtime.MemStats) {
		for _, sys := range fl.Servers {
			for _, b := range sys.Boards {
				for _, d := range b.Disks {
					d.Drive.ReadData(0, 1) // a zero-time read joins the drive's copy
				}
			}
		}
		runtime.ReadMemStats(m)
	}
	fl.Eng.Spawn("measure", func(p *sim.Proc) {
		for pass := 0; pass < 2; pass++ {
			if err := prepare(p); err != nil {
				t.Fatal(err)
			}
			readMemStats(&before)
			err := op(p)
			readMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	fl.Eng.Run()
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// readBack returns an op that reads data back whole from file f of z and
// checks the bytes.
func readBack(z *Store, data []byte) func(p *sim.Proc) error {
	return func(p *sim.Proc) error {
		got, err := z.Read(p, "f", 0, len(data))
		if err == nil && !bytes.Equal(got, data) {
			err = errors.New("read returned wrong bytes")
		}
		return err
	}
}

func nothing(*sim.Proc) error { return nil }

// TestReadAllocationCeiling is the cluster client's allocation gate: a
// healthy read of whole stripes allocates its result, into which every
// fragment is read in place, and little else — the servers' file systems
// and disk models included.  A buffer per fragment and another per stripe
// made it 3x.
func TestReadAllocationCeiling(t *testing.T) {
	fl, z, data := stripedFile(t, 4)
	if got := allocPerByte(t, fl, len(data), nothing, readBack(z, data)); got > 1.2 {
		t.Errorf("healthy whole-stripe read allocates %.2f bytes per byte returned (ceiling 1.2)", got)
	}
}

// TestDegradedReadAllocationCeiling: with a host down, a whole-stripe read
// rebuilds the lost fragments in place, through parity fragments taken from
// the column free list the store's files share (1.30 bytes per byte when
// each was new).
func TestDegradedReadAllocationCeiling(t *testing.T) {
	fl, z, data := stripedFile(t, 4)
	fl.Servers[1].SetDown(true)
	if got := allocPerByte(t, fl, len(data), nothing, readBack(z, data)); got > 1.15 {
		t.Errorf("degraded whole-stripe read allocates %.2f bytes per byte returned (ceiling 1.15)", got)
	}
}

// TestWriteAllocationCeiling: a striped write computes each stripe's parity
// in a buffer from the free list (1.75 bytes per byte written when each was
// new).  What is left is mostly the servers' disk pages, and how much of it
// is allocated depends on test order: a page the drives materialize is new
// only when no earlier test's dead drives left a spare one behind
// (internal/disk's page store).
func TestWriteAllocationCeiling(t *testing.T) {
	fl, z, data := stripedFile(t, 4)
	write := func(p *sim.Proc) error { return z.Write(p, "f", 0, data) }
	if got := allocPerByte(t, fl, len(data), nothing, write); got > 1.5 {
		t.Errorf("striped write allocates %.2f bytes per byte written (ceiling 1.5)", got)
	}
}

// TestRebuildAllocationCeiling: RebuildServer takes each stale stripe's
// survivors and the fragment it rebuilds from the free list, and puts them
// back once the rebuilt fragment is stored (7.0 bytes per rebuilt byte when
// each was new).
func TestRebuildAllocationCeiling(t *testing.T) {
	const victim, stripes = 2, 4
	fl, z, data := stripedFile(t, stripes)
	stale := func(p *sim.Proc) error {
		fl.Servers[victim].SetDown(true)
		defer fl.Servers[victim].SetDown(false)
		return z.Write(p, "f", 0, data)
	}
	rebuild := func(p *sim.Proc) error {
		n, err := z.RebuildServer(p, victim)
		if err == nil && n != stripes {
			err = fmt.Errorf("rebuilt %d fragments, want %d", n, stripes)
		}
		return err
	}
	if got := allocPerByte(t, fl, stripes*z.cfg.FragmentBytes, stale, rebuild); got > 4 {
		t.Errorf("rebuild allocates %.2f bytes per rebuilt byte (ceiling 4)", got)
	}
}

// poisonStripes is how many stripes of 0xA5 the file "poison" holds.
const poisonStripes = 8

// poison fills the column free list z's files share with buffers of 0xA5,
// so every column buffer the next operation takes holds bytes it must
// overwrite or clear before it reads them.  It reads the file "poison"
// with a column lost — the host that is down, or else one failed for the
// read alone — so the parity fragments it reads pass through buffers from
// the list.
func poison(t *testing.T, p *sim.Proc, z *Store) {
	t.Helper()
	f := z.files["poison"]
	if err := z.track(f); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(z.fleet.Servers, (*server.System).Down) {
		if err := f.a.FailDisk(0); err != nil {
			t.Fatal(err)
		}
		defer f.a.ReturnDisk(0)
	}
	if err := f.a.ReadInto(p, 0, make([]byte, poisonStripes*z.StripeBytes())); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonedFragmentBuffers: with garbage in every buffer the store
// recycles, a striped write, degraded reads over whole, partial and tail
// stripes with each host down in turn, reads of a stripe no write reached
// (its fragments are shorter on the servers than in the stripe, or absent),
// and a stale write followed by RebuildServer all return the written bytes.
func TestPoisonedFragmentBuffers(t *testing.T) {
	fl, z := newFleet(t, 4, 1)
	sb := z.StripeBytes()
	data, fresh := tailedPattern(z), pattern(11, 2*sb+sb/4)
	sparse := append(make([]byte, sb), pattern(5, sb)...) // stripe 0 never written
	fl.Eng.Spawn("t", func(p *sim.Proc) {
		write := func(name string, b []byte, off int) {
			t.Helper()
			poison(t, p, z)
			if err := z.Write(p, name, int64(off), b[off:]); err != nil {
				t.Fatal(err)
			}
		}
		check := func(what, name string, want []byte, r [2]int) {
			t.Helper()
			poison(t, p, z)
			got, err := z.Read(p, name, int64(r[0]), r[1])
			if err != nil || !bytes.Equal(got, want[r[0]:r[0]+r[1]]) {
				t.Fatalf("%s: read %s (%d,+%d) returned wrong bytes (err %v)", what, name, r[0], r[1], err)
			}
		}
		for _, name := range []string{"poison", "f", "sparse", "stale"} {
			if err := z.Create(p, name); err != nil {
				t.Fatal(err)
			}
		}
		if err := z.Write(p, "poison", 0, bytes.Repeat([]byte{0xA5}, poisonStripes*sb)); err != nil {
			t.Fatal(err)
		}
		write("f", data, 0)
		write("sparse", sparse, sb)
		for dead := -1; dead < 4; dead++ {
			what := "healthy"
			if dead >= 0 {
				fl.Servers[dead].SetDown(true)
				what = fmt.Sprintf("s%d down", dead)
			}
			for _, r := range inPlaceRanges(z) {
				check(what, "f", data, r)
			}
			check(what, "sparse", sparse, [2]int{0, 2 * sb})
			check(what, "sparse", sparse, [2]int{sb / 6, sb / 2})
			if dead >= 0 {
				fl.Servers[dead].SetDown(false)
			}
		}

		write("stale", pattern(7, len(fresh)), 0)
		fl.Servers[2].SetDown(true)
		write("stale", fresh, 0)
		fl.Servers[2].SetDown(false)
		poison(t, p, z)
		if n, err := z.RebuildServer(p, 2); err != nil || n != 3 {
			t.Fatalf("rebuild: %d fragments, err %v; want 3", n, err)
		}
		fl.Servers[0].SetDown(true) // reads now lean on the rebuilt fragments
		check("rebuilt s2, s0 down", "stale", fresh, [2]int{0, len(fresh)})
	})
	fl.Eng.Run()
}

// TestHostDiesMidStream: a host goes down while its fragments' chunks are
// on the ring.  Its reads in flight fail, and the array solves its
// fragments in place from the survivors and parity; the chunks it had
// already delivered into those places must not survive into the result.
func TestHostDiesMidStream(t *testing.T) {
	const victim, servers, stripes = 1, 4, 4
	// read writes the file, reads it back whole and checks the bytes; it
	// returns when the read started and what the victim's and the other
	// hosts' HIPPI source ports moved during it.
	read := func(p *sim.Proc, fl *server.Fleet, z *Store) (start sim.Time, victimSent, othersSent uint64) {
		data := pattern(0, stripes*z.StripeBytes())
		if err := z.Create(p, "f"); err != nil {
			t.Fatal(err)
		}
		if err := z.Write(p, "f", 0, data); err != nil {
			t.Fatal(err)
		}
		if err := z.SyncAll(p); err != nil {
			t.Fatal(err)
		}
		sent := func() (v, others uint64) {
			for s, sys := range fl.Servers {
				if n := sys.Boards[0].XB.HIPPIS.BytesMoved(); s == victim {
					v = n
				} else {
					others += n
				}
			}
			return v, others
		}
		v0, o0 := sent()
		start = p.Now()
		got, err := z.Read(p, "f", 0, len(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read returned wrong bytes (err %v)", err)
		}
		v1, o1 := sent()
		return start, v1 - v0, o1 - o0
	}
	var start, end sim.Time
	var whole, healthy uint64
	runFleet(t, servers, 1, fault.Plan{}, func(p *sim.Proc, fl *server.Fleet, z *Store) {
		start, whole, healthy = read(p, fl, z)
		end = p.Now()
	})

	plan := fault.Plan{}.ServerDownAt(time.Duration(start+(end-start)/2), victim)
	runFleet(t, servers, 1, plan, func(p *sim.Proc, fl *server.Fleet, z *Store) {
		_, sent, others := read(p, fl, z)
		if !fl.Servers[victim].Down() {
			t.Fatal("the scripted ServerDownAt did not fire during the read")
		}
		if sent == 0 || sent >= whole {
			t.Fatalf("s%d sent %d of its %d bytes before it died: the fault missed the stream", victim, sent, whole)
		}
		// The stripes in flight were fetched again, degraded, parity included.
		if others <= healthy {
			t.Fatalf("the survivors sent %d bytes, no more than the healthy read's %d: no stripe took the degraded retry", others, healthy)
		}
	})
}

// spanHook is a sim.Tracer that hands every span that ends to its function.
type spanHook func(p *sim.Proc, cat, name string, start sim.Time)

func (spanHook) ProcStart(*sim.Proc)                                        {}
func (spanHook) ProcFinish(*sim.Proc)                                       {}
func (spanHook) ResourceCreate(string, int)                                 {}
func (spanHook) ResourceWait(string, *sim.Proc, int)                        {}
func (spanHook) ResourceAcquire(string, *sim.Proc, int, sim.Duration, bool) {}
func (spanHook) ResourceRelease(string, int)                                {}
func (h spanHook) Span(p *sim.Proc, cat, name string, start sim.Time)       { h(p, cat, name, start) }

// TestFragmentStreamsByTrack: on a healthy fleet, each fragment leaves its
// server a track of the drives at a time.  Its first piece is on the ring
// before the last of its device commands returns, and the ring carries it
// in at least as many packets as the fragment has tracks.
func TestFragmentStreamsByTrack(t *testing.T) {
	fl, z, _ := stripedFile(t, 1)
	spec := fl.Servers[0].Cfg.DiskSpec
	track := spec.SectorsPerTrack * spec.SectorSize
	var firstPacket, lastDisk sim.Time
	packets := 0
	fl.Eng.SetTracer(spanHook(func(p *sim.Proc, cat, name string, _ sim.Time) {
		switch {
		case cat == "hippi" && name == "packet":
			if packets++; packets == 1 {
				firstPacket = p.Now()
			}
		case cat == "disk" && name == "read":
			lastDisk = max(lastDisk, p.Now())
		}
	}))
	f := z.files["f"]
	for srv := range fl.Servers {
		dst := make([]byte, z.cfg.FragmentBytes) // stripe 0's column
		firstPacket, lastDisk, packets = 0, 0, 0
		fl.Eng.Spawn("frag", func(p *sim.Proc) {
			if err := f.hosts[srv].ReadInto(p, 0, dst); err != nil {
				t.Fatal(err)
			}
		})
		fl.Eng.Run()
		if lastDisk == 0 || firstPacket >= lastDisk {
			t.Errorf("s%d: the fragment's first packet left at %v, its last device command returned at %v", srv, firstPacket, lastDisk)
		}
		if want := (len(dst) + track - 1) / track; packets < want {
			t.Errorf("s%d: %d KB fragment went in %d ring packets, want at least %d (one per %d KB track)", srv, len(dst)>>10, packets, want, track>>10)
		}
	}
}

// BenchmarkZebraRead reads four whole stripes (11.25 MB) from a healthy
// 4-server fleet: the client's reassembly over the servers' full read path.
func BenchmarkZebraRead(b *testing.B) {
	fl, z, data := stripedFile(b, 4)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	fl.Eng.Spawn("read", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := z.Read(p, "f", 0, len(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	fl.Eng.Run()
}
