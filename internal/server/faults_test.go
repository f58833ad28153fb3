package server

import (
	"strings"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/hippi"
	"raidii/internal/sim"
	"raidii/internal/trace"
)

// TestNetworkFaultsReachEveryPort: each network fault kind a plan scripts
// sets the fault state of the port it names — the ring, the Ethernet, a
// board's HIPPI endpoint, a client NIC — and of no other port.  Only HIPPI
// endpoints stall: a plan that stalls the ring or the Ethernet is refused.
func TestNetworkFaultsReachEveryPort(t *testing.T) {
	const at, stall = 10 * time.Millisecond, 5 * time.Millisecond
	targets := []struct {
		net    fault.NetPort
		idx    int
		stalls bool
	}{
		{fault.PortRing, 0, false},
		{fault.PortEther, 0, false},
		{fault.PortBoardHIPPI, 1, true},
		{fault.PortClientNIC, 1, true},
	}
	for _, tg := range targets {
		for _, tc := range []struct {
			kind fault.Kind
			plan fault.Plan
			want fault.Port
		}{
			{fault.LinkDown, fault.Plan{}.LinkDownAt(at, tg.net, tg.idx), fault.Port{Down: true}},
			{fault.LinkUp, fault.Plan{}.LinkDownAt(at, tg.net, tg.idx).LinkUpAt(2*at, tg.net, tg.idx), fault.Port{}},
			{fault.PacketLoss, fault.Plan{}.PacketLossEvery(4, tg.net, tg.idx), fault.Port{LossEvery: 4}},
			{fault.EndpointStall, fault.Plan{}.EndpointStallAt(at, tg.net, tg.idx, stall), stalledUntil(sim.Time(at + stall))},
		} {
			cfg := DefaultConfig()
			cfg.Boards, cfg.DisksPerString, cfg.Faults = 2, 1, tc.plan
			sys, err := New(cfg)
			if tc.kind == fault.EndpointStall && !tg.stalls {
				if err == nil {
					t.Errorf("%v on %v: plan accepted, want it refused", tc.kind, tg.net)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v on %v: %v", tc.kind, tg.net, err)
			}
			clients := []*hippi.Endpoint{{Name: "c0"}, {Name: "c1"}}
			for _, c := range clients {
				sys.RegisterClientEndpoint(c)
			}
			sys.Eng.Run()
			ports := []struct {
				net  fault.NetPort
				idx  int
				port *fault.Port
			}{
				{fault.PortRing, 0, &sys.Ultra.Port},
				{fault.PortEther, 0, &sys.Ether.Port},
				{fault.PortBoardHIPPI, 0, &sys.Boards[0].HEP.Port},
				{fault.PortBoardHIPPI, 1, &sys.Boards[1].HEP.Port},
				{fault.PortClientNIC, 0, &clients[0].Port},
				{fault.PortClientNIC, 1, &clients[1].Port},
			}
			for _, p := range ports {
				want := fault.Port{}
				if p.net == tg.net && p.idx == tg.idx {
					want = tc.want
				}
				if *p.port != want {
					t.Errorf("%v on %v %d: %v %d is %+v, want %+v", tc.kind, tg.net, tg.idx, p.net, p.idx, *p.port, want)
				}
			}
		}
	}
}

// stalledUntil is a port whose only fault is a stall until t.
func stalledUntil(t sim.Time) (pt fault.Port) {
	pt.StallUntil(t)
	return pt
}

// TestOverlappingStallsKeepTheLater: a short stall scripted inside a longer
// one on the same HIPPI endpoint, or on the same SCSI string, leaves the
// longer one in force.  The endpoint used to keep the last stall scripted,
// so the short one cut the long one short.
func TestOverlappingStallsKeepTheLater(t *testing.T) {
	const long, short = 100 * time.Millisecond, 10 * time.Millisecond
	cfg := DefaultConfig()
	cfg.Boards, cfg.DisksPerString = 1, 1
	cfg.Faults = fault.Plan{}.
		EndpointStallAt(10*time.Millisecond, fault.PortBoardHIPPI, 0, long).
		EndpointStallAt(20*time.Millisecond, fault.PortBoardHIPPI, 0, short).
		StringStallAt(10*time.Millisecond, 0, 0, long).
		StringStallAt(20*time.Millisecond, 0, 0, short)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Boards[0]
	const probe = 50 * time.Millisecond
	want := 10*time.Millisecond + long - probe
	sys.Eng.At(sim.Time(probe), "probe", func(p *sim.Proc) {
		if got := b.HEP.Port.Stall(p.Now()); got != want {
			t.Errorf("HIPPI endpoint: %v of stall left at %v, want %v", got, probe, want)
		}
		if got := b.Disks[0].Drive.Port.Stall(p.Now()); got != want {
			t.Errorf("drive: %v of stall left at %v, want %v", got, probe, want)
		}
	})
	sys.Eng.Run()
}

// TestFaultVerdicts: every plan builder, in range and out of range on each
// coordinate it names, gets the same verdict from a standalone server and
// from a one-host fleet, and the verdicts are the ones the standalone
// server gave when it was a fault target of its own.  The machine is two
// boards of eight disks; the server's names carry no "s0-".
func TestFaultVerdicts(t *testing.T) {
	const at, stall = time.Second, 10 * time.Millisecond
	pl := fault.Plan{}
	last := DefaultConfig().DiskSpec.Sectors() - 8
	for _, c := range []struct {
		name  string
		plan  fault.Plan
		nvram bool
		ok    bool
	}{
		{"disk fail", pl.DiskFailAt(at, 1, 7), false, true},
		{"disk fail, no board", pl.DiskFailAt(at, 2, 0), false, false},
		{"disk fail, negative board", pl.DiskFailAt(at, -1, 0), false, false},
		{"disk fail, no disk", pl.DiskFailAt(at, 0, 8), false, false},
		{"disk fail, negative disk", pl.DiskFailAt(at, 0, -1), false, false},
		{"disk fail after ops", pl.DiskFailAfterOps(40, 0, 3), false, true},
		{"disk fail after ops, no board", pl.DiskFailAfterOps(40, 2, 3), false, false},
		{"disk fail after ops, no disk", pl.DiskFailAfterOps(40, 1, 8), false, false},
		{"latent sector, last sectors", pl.LatentSector(1, 7, last, 8), false, true},
		{"latent sector, past the end", pl.LatentSector(1, 7, last+1, 8), false, false},
		{"latent sector, empty", pl.LatentSector(0, 0, 0, 0), false, false},
		{"latent sector, no board", pl.LatentSector(2, 0, 0, 8), false, false},
		{"latent sector, no disk", pl.LatentSector(0, 8, 0, 8), false, false},
		{"latent sector after ops", pl.LatentSectorAfterOps(7, 0, 6, 100, 1), false, true},
		{"latent sector after ops, past the end", pl.LatentSectorAfterOps(7, 0, 6, last+8, 1), false, false},
		{"latent sector after ops, no disk", pl.LatentSectorAfterOps(7, 0, 9, 100, 1), false, false},
		{"string stall", pl.StringStallAt(at, 1, 5, stall), false, true},
		{"string stall, no board", pl.StringStallAt(at, 2, 5, stall), false, false},
		{"string stall, no disk", pl.StringStallAt(at, 1, 8, stall), false, false},
		{"fs crash", pl.FSCrashAt(at, 1), false, true},
		{"fs crash, no board", pl.FSCrashAt(at, 2), false, false},
		{"fs crash at commit", pl.FSCrashAtCommit(3, 1), true, true},
		{"fs crash at commit, no nvram", pl.FSCrashAtCommit(3, 1), false, false},
		{"fs crash at commit, no board", pl.FSCrashAtCommit(3, 2), true, false},
		{"ring down", pl.LinkDownAt(at, fault.PortRing, 0), false, true},
		{"ethernet down", pl.LinkDownAt(at, fault.PortEther, 0), false, true},
		{"board endpoint down", pl.LinkDownAt(at, fault.PortBoardHIPPI, 1), false, true},
		{"board endpoint down, no board", pl.LinkDownAt(at, fault.PortBoardHIPPI, 2), false, false},
		{"client nic down, before it attaches", pl.LinkDownAt(at, fault.PortClientNIC, 5), false, true},
		{"link down, no server", fault.Plan{Events: []fault.Event{{Kind: fault.LinkDown, At: at, Server: 1}}}, false, false},
		{"link up", pl.LinkUpAt(at, fault.PortBoardHIPPI, 0), false, true},
		{"link up, no board", pl.LinkUpAt(at, fault.PortBoardHIPPI, -1), false, false},
		{"packet loss", pl.PacketLossEvery(3, fault.PortBoardHIPPI, 1), false, true},
		{"packet loss, no board", pl.PacketLossEvery(3, fault.PortBoardHIPPI, 2), false, false},
		{"endpoint stall", pl.EndpointStallAt(at, fault.PortBoardHIPPI, 0, stall), false, true},
		{"endpoint stall, no board", pl.EndpointStallAt(at, fault.PortBoardHIPPI, 2, stall), false, false},
		{"endpoint stall, client nic", pl.EndpointStallAt(at, fault.PortClientNIC, 0, stall), false, true},
		{"server down", pl.ServerDownAt(at, 0), false, true},
		{"server down, no server", pl.ServerDownAt(at, 1), false, false},
		{"server up", pl.ServerUpAt(at, 0), false, true},
		{"server up, negative server", pl.ServerUpAt(at, -1), false, false},
	} {
		cfg := DefaultConfig()
		cfg.Boards, cfg.DisksPerString, cfg.Faults = 2, 1, c.plan
		if c.nvram {
			cfg.NVRAMBytes = 1 << 20
		}
		sys, err := New(cfg)
		if got := err == nil; got != c.ok {
			t.Errorf("%s: New accepted = %v (%v), want %v", c.name, got, err, c.ok)
		}
		fl, ferr := NewFleet(cfg)
		if (ferr == nil) != (err == nil) {
			t.Errorf("%s: New says %v, a one-host NewFleet %v", c.name, err, ferr)
		}
		if sys == nil || fl == nil {
			continue
		}
		names := trace.Attach(sys.Eng, trace.Config{}).Resources()
		fleetNames := trace.Attach(fl.Eng, trace.Config{}).Resources()
		if len(names) != len(fleetNames) {
			t.Fatalf("%s: New built %d resources, NewFleet %d", c.name, len(names), len(fleetNames))
		}
		for i, r := range names {
			if strings.HasPrefix(r.Name, "s0-") || r.Name != strings.TrimPrefix(fleetNames[i].Name, "s0-") {
				t.Fatalf("%s: New's resource %d is %q, the fleet's %q", c.name, i, r.Name, fleetNames[i].Name)
			}
		}
		sys.Eng.Shutdown()
		fl.Eng.Shutdown()
	}
}

// TestClientNICFaultBeforeItAttaches: a plan may script a fault on a client
// index before that client attaches, or on one that never does.  The event
// fires on the fleet's client-port table: a client that attaches after it
// starts in the state it left, and an event on a client that never
// attaches changes no attached NIC.  The fleet used to look the index up
// among the attached clients at fire time and stop the run.
func TestClientNICFaultBeforeItAttaches(t *testing.T) {
	const at = time.Millisecond
	cfg := DefaultConfig()
	cfg.Boards, cfg.DisksPerString = 1, 1
	cfg.Faults = fault.Plan{}.
		LinkDownAt(at, fault.PortClientNIC, 0).
		PacketLossEvery(3, fault.PortClientNIC, 1).
		LinkDownAt(at, fault.PortClientNIC, 5)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	early := &hippi.Endpoint{Name: "c0"}
	sys.RegisterClientEndpoint(early)
	sys.Eng.RunUntil(sim.Time(2 * at))
	late := &hippi.Endpoint{Name: "c1"}
	sys.RegisterClientEndpoint(late)
	if want := (fault.Port{Down: true}); early.Port != want {
		t.Errorf("client 0, attached before its event: %+v, want %+v", early.Port, want)
	}
	if want := (fault.Port{LossEvery: 3}); late.Port != want {
		t.Errorf("client 1, attached after its event: %+v, want %+v", late.Port, want)
	}
	// The event's own port, not the NIC's copy, is what a later event sets.
	sys.fleet.Inject(nil, fault.Event{Kind: fault.LinkDown, Net: fault.PortClientNIC, Board: 1})
	if !late.Port.Down {
		t.Error("client 1: an event after it attached did not reach its NIC")
	}
	sys.Eng.Shutdown()
}
