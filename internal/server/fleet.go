package server

import (
	"fmt"

	"raidii/internal/fault"
	"raidii/internal/hippi"
	"raidii/internal/sim"
)

// Fleet is the paper's §2.1.2 scale-out configuration: several independent
// RAID-II server hosts attached to one Ultranet ring, sharing a single
// simulation engine so a fleet-wide run stays one deterministic event
// sequence.  Every host is a full System — boards, arrays, caches, file
// systems — with its resource names prefixed "s0-", "s1-", ... so traces
// and telemetry stay per-server.  A standalone server (New) is a fleet of
// one whose host keeps its names unprefixed.  File striping across the
// hosts lives above this layer, in internal/zebra.
type Fleet struct {
	Eng     *sim.Engine
	Ultra   *hippi.Ultranet
	Servers []*System

	// clients is the client-port table: client workstations in attachment
	// order are the one index space PortClientNIC fault events target,
	// whichever host a client talks to.  The first event on a client that
	// has not attached makes its entry, and the client's NIC takes over the
	// entry, and the state the plan gave it so far, when it attaches.  An
	// event on a client that never attaches changes a port no NIC uses, as
	// one on an idle board endpoint does.
	clients  map[int]*fault.Port
	attached int // the clients attached so far
}

// NewFleet assembles cfg.Servers hosts (minimum 1) from one Config, named
// "s0", "s1", ..., and arms the fault plan fleet-wide.
func NewFleet(cfg Config) (*Fleet, error) {
	names := make([]string, max(cfg.Servers, 1))
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	return newFleet(cfg, names)
}

// newFleet assembles one host per name on a fresh engine and a shared ring,
// then arms the fault plan against the fleet: each event's Server field
// routes it to the owning host.  Every host is built from one Config, so
// an assembly error is the first host's and names no host.
func newFleet(cfg Config, names []string) (*Fleet, error) {
	e := sim.New()
	fl := &Fleet{Eng: e, Ultra: hippi.NewUltranet(e, cfg.HIPPI), clients: make(map[int]*fault.Port)}
	for i, name := range names {
		hostCfg := cfg
		hostCfg.Name = name
		sys, err := fl.assemble(i, hostCfg)
		if err != nil {
			return nil, err
		}
		fl.Servers = append(fl.Servers, sys)
	}
	if err := fault.Arm(e, cfg.Faults, fl); err != nil {
		return nil, err
	}
	return fl, nil
}

// RegisterClientEndpoint records a client workstation's HIPPI endpoint in
// the fleet-wide registry, returning its PortClientNIC index.  The endpoint
// starts in whatever state the plan's events on that index have left.
func (fl *Fleet) RegisterClientEndpoint(ep *hippi.Endpoint) int {
	i := fl.attached
	fl.attached++
	if pt := fl.clients[i]; pt != nil {
		ep.Port = *pt
	}
	fl.clients[i] = &ep.Port
	return i
}

// Fleet implements fault.Target, the only one: fault.Arm has already found
// an event well formed, and the fleet routes it by its Server field to the
// host that checks and performs it.

// Check answers whether the hardware one event names exists in the fleet.
func (fl *Fleet) Check(ev fault.Event) error {
	if ev.Server < 0 || ev.Server >= len(fl.Servers) {
		return fmt.Errorf("no server %d in a %d-server fleet", ev.Server, len(fl.Servers))
	}
	return fl.Servers[ev.Server].check(ev)
}

// Inject routes one fault event to its target host.
func (fl *Fleet) Inject(p *sim.Proc, ev fault.Event) {
	fl.Servers[ev.Server].inject(p, ev)
}
