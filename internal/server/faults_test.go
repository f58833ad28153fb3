package server

import (
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/hippi"
	"raidii/internal/sim"
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
