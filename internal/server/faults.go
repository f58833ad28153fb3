package server

import (
	"fmt"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// System implements fault.Target: a fault plan handed to New through
// Config.Faults is validated and armed against the assembled boards.

// Check validates one fault event against the system's geometry.
func (sys *System) Check(ev fault.Event) error {
	if ev.Server != sys.index {
		return fmt.Errorf("event targets server %d, not host %d", ev.Server, sys.index)
	}
	switch ev.Kind {
	case fault.ServerDown, fault.ServerUp:
		if ev.After > 0 {
			return fmt.Errorf("server down/up faults are time-triggered only")
		}
		return nil
	case fault.LinkDown, fault.LinkUp, fault.PacketLoss, fault.EndpointStall:
		return sys.checkNet(ev)
	}
	if ev.Board < 0 || ev.Board >= len(sys.Boards) {
		return fmt.Errorf("no board %d", ev.Board)
	}
	b := sys.Boards[ev.Board]
	switch ev.Kind {
	case fault.DiskFail:
		if ev.Disk < 0 || ev.Disk >= len(b.Disks) {
			return fmt.Errorf("board %d has no disk %d", ev.Board, ev.Disk)
		}
	case fault.LatentSector:
		if ev.Disk < 0 || ev.Disk >= len(b.Disks) {
			return fmt.Errorf("board %d has no disk %d", ev.Board, ev.Disk)
		}
		d := b.Disks[ev.Disk]
		if ev.Sectors <= 0 || ev.LBA < 0 || ev.LBA+int64(ev.Sectors) > d.Sectors() {
			return fmt.Errorf("bad sector range [%d, %d) on disk %d", ev.LBA, ev.LBA+int64(ev.Sectors), ev.Disk)
		}
	case fault.StringStall:
		if ev.Disk < 0 || ev.Disk >= len(b.Disks) {
			return fmt.Errorf("board %d has no disk %d", ev.Board, ev.Disk)
		}
		if ev.After > 0 {
			return fmt.Errorf("string stalls are time-triggered only")
		}
		if ev.Stall <= 0 {
			return fmt.Errorf("stall duration must be positive")
		}
	case fault.FSCrash:
		if ev.After > 0 && b.nv == nil {
			return fmt.Errorf("commit-triggered fs crash needs an nvram region on board %d (set Config.NVRAMBytes)", ev.Board)
		}
	default:
		return fmt.Errorf("unknown fault kind %d", int(ev.Kind))
	}
	return nil
}

// checkNet validates a network fault event.  The target port must exist in
// the assembled hardware, with one exception: client NICs attach after
// assembly, so a PortClientNIC index is only range-checked at fire time.
func (sys *System) checkNet(ev fault.Event) error {
	if ev.After > 0 {
		return fmt.Errorf("network faults are time-triggered only")
	}
	switch ev.Net {
	case fault.PortRing, fault.PortEther:
		// Singleton ports: no index.
	case fault.PortBoardHIPPI:
		if ev.Board < 0 || ev.Board >= len(sys.Boards) {
			return fmt.Errorf("no board %d for %v fault", ev.Board, ev.Net)
		}
	case fault.PortClientNIC:
		if ev.Board < 0 {
			return fmt.Errorf("negative client index %d", ev.Board)
		}
	default:
		return fmt.Errorf("unknown network port %d", int(ev.Net))
	}
	switch ev.Kind {
	case fault.PacketLoss:
		if ev.Every < 1 {
			return fmt.Errorf("packet loss period must be >= 1, got %d", ev.Every)
		}
	case fault.EndpointStall:
		if ev.Net != fault.PortBoardHIPPI && ev.Net != fault.PortClientNIC {
			return fmt.Errorf("%v cannot stall: only HIPPI endpoints do", ev.Net)
		}
		if ev.Stall <= 0 {
			return fmt.Errorf("stall duration must be positive")
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
		clients := sys.clientEndpoints()
		if ev.Board >= len(clients) {
			//lint:allow simpanic the plan scripted a fault against a client that never attached; Check defers this to fire time by design
			panic(fmt.Sprintf("server: network fault targets client %d but only %d clients attached", ev.Board, len(clients)))
		}
		return &clients[ev.Board].Port
	}
	return &sys.Boards[ev.Board].HEP.Port
}

// Inject performs one fault event.  Time-triggered events arrive inside a
// simulated process at their scheduled instant; op-count events arrive at
// arm time with p == nil and are deferred to the drive's own counter.
func (sys *System) Inject(p *sim.Proc, ev fault.Event) {
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
