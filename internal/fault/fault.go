// Package fault is the deterministic fault-injection subsystem: a Plan is
// a scripted set of component failures — whole-disk failures, latent sector
// errors, SCSI-string stalls, network link and endpoint faults, and a file
// system crash point — each fired at a scheduled simulated time or after an
// operation count on the target drive.  Arm schedules a plan against a
// Target (the assembled fleet) before the simulation starts, so an
// identical plan on an identical workload produces a byte-identical trace:
// fault injection is part of the determinism contract, never an exception
// to it.
//
// The package also defines the sentinel errors the storage stack uses to
// report hardware faults upward: the drive returns them, the SCSI layer
// retries with deterministic backoff and escalates them, and the RAID layer
// converts an escalated error into a disk failure and degraded operation.
package fault

import (
	"errors"
	"fmt"
	"time"

	"raidii/internal/sim"
)

// Sentinel errors reported by the simulated hardware.  Layers wrap them
// with fmt.Errorf("...: %w", ...), so callers test with errors.Is.
var (
	// ErrDiskFailed is returned for any command to a disk whose
	// electronics have failed.  Retrying is pointless.
	ErrDiskFailed = errors.New("fault: disk failed")
	// ErrMedium is an unrecoverable medium error: the drive positioned and
	// read, but a sector in the requested range is unreadable.  Persistent
	// until the sector is rewritten (the drive remaps it).
	ErrMedium = errors.New("fault: unrecoverable medium error")
	// ErrTimeout is a command timeout: the device did not respond within
	// the controller's command timeout.
	ErrTimeout = errors.New("fault: command timed out")
	// ErrLinkDown reports a transfer attempted over a network link or
	// endpoint that is administratively or physically down.  Transient by
	// design: a LinkUp event restores the port.
	ErrLinkDown = errors.New("fault: network link down")
	// ErrPacketLost reports a packet the network dropped; the sender
	// detects the loss after a timeout and the transfer fails at packet
	// granularity.  Retrying resends from the last completed chunk.
	ErrPacketLost = errors.New("fault: network packet lost")
	// ErrNetTimeout reports an endpoint that stopped responding: the sender
	// waited out its stall timeout without the transfer starting.
	ErrNetTimeout = errors.New("fault: network endpoint timed out")
	// ErrServerBusy reports a request the server shed at admission because
	// the board's bounded request queue was full.  The client retry layer
	// treats it like a transient network fault: back off and resend.
	ErrServerBusy = errors.New("fault: server busy")
	// ErrDeadline reports a client request abandoned because its
	// per-request deadline expired before the retries succeeded.
	ErrDeadline = errors.New("fault: request deadline exceeded")
)

// Retryable reports whether err is transient from the client library's
// point of view: network faults, shed requests, and command timeouts are
// worth a backed-off retry, while disk failures, medium errors, and file
// system errors are not improved by resending the request.
func Retryable(err error) bool {
	return errors.Is(err, ErrLinkDown) ||
		errors.Is(err, ErrPacketLost) ||
		errors.Is(err, ErrNetTimeout) ||
		errors.Is(err, ErrServerBusy) ||
		errors.Is(err, ErrTimeout)
}

// Kind selects what a fault event breaks.
type Kind int

const (
	// DiskFail kills a whole drive: every subsequent command returns
	// ErrDiskFailed.
	DiskFail Kind = iota
	// LatentSector marks a sector range unreadable: reads covering it
	// return ErrMedium until the range is rewritten.
	LatentSector
	// StringStall hangs every drive on the target disk's SCSI string for
	// the event's Stall duration; commands issued meanwhile time out at the
	// controller.
	StringStall
	// FSCrash crashes the file system on the target board (volatile state
	// is lost), for recovery testing.
	FSCrash
	// LinkDown takes a network port (the Ultranet ring, a board's HIPPI
	// endpoint, a client NIC, or the Ethernet) out of service: transfers
	// touching it fail with ErrLinkDown until a LinkUp event.
	LinkDown
	// LinkUp restores a port a LinkDown event took out.
	LinkUp
	// PacketLoss makes the target port drop every Every-th packet it
	// carries; the sender sees ErrPacketLost after the loss-detect timeout.
	PacketLoss
	// EndpointStall makes a HIPPI endpoint unresponsive for the event's
	// Stall duration; senders wait out their stall timeout and fail with
	// ErrNetTimeout until the endpoint recovers.
	EndpointStall
	// ServerDown kills a whole server host: every board HIPPI endpoint on
	// the host stops answering (transfers fail with ErrLinkDown) until a
	// ServerUp event.  In a fleet, cross-server parity absorbs the loss.
	ServerDown
	// ServerUp restores a host a ServerDown event took out.  Data written
	// to the stripe while the host was down is stale on it until the
	// cluster rebuilds the host's fragments from cross-server parity.
	ServerUp
)

// String names the kind for trace labels and error messages.
func (k Kind) String() string {
	switch k {
	case DiskFail:
		return "disk-fail"
	case LatentSector:
		return "latent-sector"
	case StringStall:
		return "string-stall"
	case FSCrash:
		return "fs-crash"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case PacketLoss:
		return "packet-loss"
	case EndpointStall:
		return "endpoint-stall"
	case ServerDown:
		return "server-down"
	case ServerUp:
		return "server-up"
	}
	return fmt.Sprintf("fault-kind-%d", int(k))
}

// NetPort selects which network component a network fault event targets.
type NetPort int

const (
	// PortRing is the shared Ultranet ring.
	PortRing NetPort = iota
	// PortBoardHIPPI is one XBUS board's HIPPI endpoint; the event's Board
	// field selects the board.
	PortBoardHIPPI
	// PortClientNIC is one client workstation's network interface; the
	// event's Board field carries the client's registration index (clients
	// register with the server in attachment order).
	PortClientNIC
	// PortEther is the host's Ethernet segment.
	PortEther
)

// String names the port for error messages.
func (n NetPort) String() string {
	switch n {
	case PortRing:
		return "ultranet-ring"
	case PortBoardHIPPI:
		return "board-hippi"
	case PortClientNIC:
		return "client-nic"
	case PortEther:
		return "ethernet"
	}
	return fmt.Sprintf("net-port-%d", int(n))
}

// Event is one scheduled fault.  Exactly one trigger applies: At (simulated
// time from the start of the run) or AfterOps (total commands the target
// drive has serviced); AfterOps takes effect when nonzero and only
// DiskFail, LatentSector, and FSCrash take it (FSCrash counts the durable
// writes of a board with NVRAM rather than drive commands).
type Event struct {
	Kind  Kind
	At    time.Duration // simulated-time trigger
	After uint64        // operation-count trigger on the target drive (alternative to At)

	// Server is the server-host index the event targets: the fleet routes
	// the event to the named host.  A standalone server, a fleet of one,
	// only accepts 0.
	Server int
	Board  int // XBUS board index (for PortClientNIC events: client index)
	Disk   int // device index within the board's array

	LBA     int64 // LatentSector: first bad sector
	Sectors int   // LatentSector: extent of the bad range

	Stall time.Duration // StringStall/EndpointStall: how long the target hangs

	Net   NetPort // network events: which port the event targets
	Every int     // PacketLoss: drop every Every-th packet
}

// Plan is an ordered fault script.  The zero value is an empty plan;
// builder methods return extended copies, so plans compose by chaining:
//
//	fault.Plan{}.DiskFailAt(2*time.Second, 0, 3).LatentSector(0, 5, 4096, 8)
type Plan struct {
	Events []Event
}

// DiskFailAt kills board b's device d at simulated time at.
func (pl Plan) DiskFailAt(at time.Duration, b, d int) Plan {
	pl.Events = append(pl.Events, Event{Kind: DiskFail, At: at, Board: b, Disk: d})
	return pl
}

// DiskFailAfterOps kills board b's device d once the drive has serviced n
// commands.
func (pl Plan) DiskFailAfterOps(n uint64, b, d int) Plan {
	pl.Events = append(pl.Events, Event{Kind: DiskFail, After: n, Board: b, Disk: d})
	return pl
}

// LatentSector marks sectors [lba, lba+n) of board b's device d unreadable
// from the start of the run.
func (pl Plan) LatentSector(b, d int, lba int64, n int) Plan {
	pl.Events = append(pl.Events, Event{Kind: LatentSector, Board: b, Disk: d, LBA: lba, Sectors: n})
	return pl
}

// LatentSectorAfterOps arms the bad range once the drive has serviced n
// commands.
func (pl Plan) LatentSectorAfterOps(n uint64, b, d int, lba int64, secs int) Plan {
	pl.Events = append(pl.Events, Event{Kind: LatentSector, After: n, Board: b, Disk: d, LBA: lba, Sectors: secs})
	return pl
}

// StringStallAt hangs the SCSI string holding board b's device d for stall,
// starting at simulated time at.
func (pl Plan) StringStallAt(at time.Duration, b, d int, stall time.Duration) Plan {
	pl.Events = append(pl.Events, Event{Kind: StringStall, At: at, Board: b, Disk: d, Stall: stall})
	return pl
}

// FSCrashAt crashes board b's file system at simulated time at.
func (pl Plan) FSCrashAt(at time.Duration, b int) Plan {
	pl.Events = append(pl.Events, Event{Kind: FSCrash, At: at, Board: b})
	return pl
}

// FSCrashAtCommit crashes board b's file system in the middle of its n-th
// durable write (1-based), after the write has entered the open segment and
// before it is committed: the write is not acknowledged (it returns
// lfs.ErrCrashed), volatile state is lost, and the battery-backed segment
// images survive for the next mount to roll forward.  Only boards
// configured with NVRAM accept commit-triggered crash points.
func (pl Plan) FSCrashAtCommit(n uint64, b int) Plan {
	pl.Events = append(pl.Events, Event{Kind: FSCrash, After: n, Board: b})
	return pl
}

// LinkDownAt takes network port (port, idx) out of service at simulated
// time at.  idx selects the board for PortBoardHIPPI or the client for
// PortClientNIC and is ignored for the ring and the Ethernet.
func (pl Plan) LinkDownAt(at time.Duration, port NetPort, idx int) Plan {
	pl.Events = append(pl.Events, Event{Kind: LinkDown, At: at, Net: port, Board: idx})
	return pl
}

// LinkUpAt restores network port (port, idx) at simulated time at.
func (pl Plan) LinkUpAt(at time.Duration, port NetPort, idx int) Plan {
	pl.Events = append(pl.Events, Event{Kind: LinkUp, At: at, Net: port, Board: idx})
	return pl
}

// PacketLossEvery makes port (port, idx) drop every n-th packet it carries,
// from the start of the run.
func (pl Plan) PacketLossEvery(n int, port NetPort, idx int) Plan {
	pl.Events = append(pl.Events, Event{Kind: PacketLoss, Net: port, Board: idx, Every: n})
	return pl
}

// EndpointStallAt makes HIPPI endpoint (port, idx) unresponsive for stall,
// starting at simulated time at.  Only endpoint ports (PortBoardHIPPI,
// PortClientNIC) can stall.
func (pl Plan) EndpointStallAt(at time.Duration, port NetPort, idx int, stall time.Duration) Plan {
	pl.Events = append(pl.Events, Event{Kind: EndpointStall, At: at, Net: port, Board: idx, Stall: stall})
	return pl
}

// ServerDownAt kills server host srv at simulated time at: every board
// HIPPI endpoint on the host stops answering until a ServerUpAt event.
// Against a single-server system only srv == 0 is valid.
func (pl Plan) ServerDownAt(at time.Duration, srv int) Plan {
	pl.Events = append(pl.Events, Event{Kind: ServerDown, At: at, Server: srv})
	return pl
}

// ServerUpAt restores server host srv at simulated time at.
func (pl Plan) ServerUpAt(at time.Duration, srv int) Plan {
	pl.Events = append(pl.Events, Event{Kind: ServerUp, At: at, Server: srv})
	return pl
}

// Empty reports whether the plan schedules nothing.
func (pl Plan) Empty() bool { return len(pl.Events) == 0 }

// Validate reports whether the event is well formed on any machine: its
// kind and port are declared ones (DiskFail to ServerUp, PortRing to
// PortEther), only disk failures, latent sectors and file
// system crashes take an op-count trigger, a latent range is non-empty,
// stalls and loss periods are positive, only HIPPI endpoints stall, and a
// client index is non-negative.  Whether the hardware it names exists is
// the Target's question.
func (ev Event) Validate() error {
	opCount := ev.Kind == DiskFail || ev.Kind == LatentSector || ev.Kind == FSCrash
	network := ev.Kind == LinkDown || ev.Kind == LinkUp || ev.Kind == PacketLoss || ev.Kind == EndpointStall
	switch {
	case ev.Kind < DiskFail || ev.Kind > ServerUp:
		return fmt.Errorf("unknown fault kind %d", int(ev.Kind))
	case ev.After > 0 && !opCount:
		return fmt.Errorf("%v faults are time-triggered only", ev.Kind)
	case ev.Kind == LatentSector && (ev.Sectors <= 0 || ev.LBA < 0):
		return fmt.Errorf("bad sector range [%d, %d)", ev.LBA, ev.LBA+int64(ev.Sectors))
	case (ev.Kind == StringStall || ev.Kind == EndpointStall) && ev.Stall <= 0:
		return fmt.Errorf("stall duration must be positive")
	case ev.Kind == PacketLoss && ev.Every < 1:
		return fmt.Errorf("packet loss period must be >= 1, got %d", ev.Every)
	case !network:
		return nil
	case ev.Net < PortRing || ev.Net > PortEther:
		return fmt.Errorf("unknown network port %d", int(ev.Net))
	case ev.Kind == EndpointStall && ev.Net != PortBoardHIPPI && ev.Net != PortClientNIC:
		return fmt.Errorf("%v cannot stall: only HIPPI endpoints do", ev.Net)
	case ev.Net == PortClientNIC && ev.Board < 0:
		return fmt.Errorf("negative client index %d", ev.Board)
	}
	return nil
}

// Target is the system a plan is armed against.  Check answers whether the
// hardware a well-formed event names exists (unknown board, device out of
// range, ...); Inject performs it.  For time-triggered events Inject runs
// inside a simulated process at the scheduled instant; for operation-count
// triggers it runs at arm time with p == nil and the target defers the
// fault to the drive's own op counter.
type Target interface {
	Check(ev Event) error
	Inject(p *sim.Proc, ev Event)
}

// Arm validates every event of the plan, first on its own and then against
// tgt, and schedules it on the engine.  Time-triggered events spawn one
// process each (named "fault:<kind>") that fires at the scheduled simulated
// time; op-count events are handed to the target immediately.  Arm must be
// called before the simulation runs past the earliest event time.
func Arm(e *sim.Engine, pl Plan, tgt Target) error {
	seenFail := make(map[[3]int]int)
	for i, ev := range pl.Events {
		err := ev.Validate()
		if err == nil {
			err = tgt.Check(ev)
		}
		if err != nil {
			return fmt.Errorf("fault: event %d (%v): %w", i, ev.Kind, err)
		}
		// Two failure events for the same drive never both fire — the drive
		// is already dead when the second arrives — so an overlapping pair in
		// a double-failure script is a scripting mistake, not a scenario.
		if ev.Kind == DiskFail {
			key := [3]int{ev.Server, ev.Board, ev.Disk}
			if j, dup := seenFail[key]; dup {
				return fmt.Errorf("fault: event %d (%v): overlapping disk failure: event %d already fails server %d board %d disk %d",
					i, ev.Kind, j, ev.Server, ev.Board, ev.Disk)
			}
			seenFail[key] = i
		}
	}
	for _, ev := range pl.Events {
		ev := ev
		if ev.After > 0 {
			tgt.Inject(nil, ev)
			continue
		}
		e.At(sim.Time(ev.At), "fault:"+ev.Kind.String(), func(p *sim.Proc) {
			end := p.Span("fault", ev.Kind.String())
			tgt.Inject(p, ev)
			end()
		})
	}
	return nil
}
