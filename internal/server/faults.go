package server

import (
	"fmt"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// A host checks and performs the fault events its fleet routes to it
// (Fleet.Check, Fleet.Inject).

// check answers whether the hardware a well-formed event names exists on
// this host: its board, disk, sector range and NVRAM region.  Any client
// index is accepted: port makes the client-port table's entry for a client
// that has not attached.
func (sys *System) check(ev fault.Event) error {
	switch ev.Kind {
	case fault.ServerDown, fault.ServerUp:
		return nil
	case fault.LinkDown, fault.LinkUp, fault.PacketLoss, fault.EndpointStall:
		if ev.Net != fault.PortBoardHIPPI {
			return nil
		}
	}
	if ev.Board < 0 || ev.Board >= len(sys.Boards) {
		return fmt.Errorf("no board %d", ev.Board)
	}
	b := sys.Boards[ev.Board]
	switch ev.Kind {
	case fault.DiskFail, fault.LatentSector, fault.StringStall:
		if ev.Disk < 0 || ev.Disk >= len(b.Disks) {
			return fmt.Errorf("board %d has no disk %d", ev.Board, ev.Disk)
		}
		if end := ev.LBA + int64(ev.Sectors); ev.Kind == fault.LatentSector && end > b.Disks[ev.Disk].Sectors() {
			return fmt.Errorf("bad sector range [%d, %d) on disk %d", ev.LBA, end, ev.Disk)
		}
	case fault.FSCrash:
		if ev.After > 0 && b.nv == nil {
			return fmt.Errorf("commit-triggered fs crash needs an nvram region on board %d (set Config.NVRAMBytes)", ev.Board)
		}
	}
	return nil
}

// port resolves the network port a network event targets.
func (sys *System) port(ev fault.Event) *fault.Port {
	switch ev.Net {
	case fault.PortRing:
		return &sys.Ultra.Port
	case fault.PortEther:
		return &sys.Ether.Port
	case fault.PortClientNIC:
		pt := sys.fleet.clients[ev.Board]
		if pt == nil {
			pt = new(fault.Port)
			sys.fleet.clients[ev.Board] = pt
		}
		return pt
	}
	return &sys.Boards[ev.Board].HEP.Port
}

// inject performs one fault event.  Time-triggered events arrive inside a
// simulated process at their scheduled instant; op-count events arrive at
// arm time with p == nil and are deferred to the drive's own counter.
func (sys *System) inject(p *sim.Proc, ev fault.Event) {
	switch ev.Kind {
	case fault.LinkDown, fault.LinkUp:
		sys.port(ev).Down = ev.Kind == fault.LinkDown
		return
	case fault.PacketLoss:
		sys.port(ev).LossEvery = ev.Every
		return
	case fault.EndpointStall:
		sys.port(ev).StallUntil(p.Now().Add(ev.Stall))
		return
	case fault.ServerDown:
		sys.SetDown(true)
		return
	case fault.ServerUp:
		sys.SetDown(false)
		return
	}
	b := sys.Boards[ev.Board]
	switch ev.Kind {
	case fault.DiskFail:
		if ev.After > 0 {
			b.Disks[ev.Disk].Drive.FailAfterOps(ev.After)
		} else {
			b.Disks[ev.Disk].Drive.Fail()
		}
	case fault.LatentSector:
		if ev.After > 0 {
			b.Disks[ev.Disk].Drive.AddLatentErrorAfterOps(ev.After, ev.LBA, ev.Sectors)
		} else {
			b.Disks[ev.Disk].Drive.AddLatentError(ev.LBA, ev.Sectors)
		}
	case fault.StringStall:
		b.Disks[ev.Disk].StallString(p.Now().Add(ev.Stall))
	case fault.FSCrash:
		if ev.After > 0 {
			b.nv.armCrashAtCommit(ev.After)
		} else {
			b.Crash()
		}
	}
}
