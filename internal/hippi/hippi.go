// Package hippi models the high-bandwidth network attachment of RAID-II:
// the Thinking Machines HIPPI source/destination board pair on each XBUS
// board, and the Ultra Network Technologies ring that connects the file
// server to supercomputers and client workstations.
//
// The dominant cost the paper measures is the fixed ~1.1 ms of overhead to
// set up the HIPPI and XBUS control registers across the slow VME link for
// every packet, which makes small transfers slow while large transfers
// approach the 40 MB/s port bandwidth (38.5 MB/s measured in loopback,
// Figure 6).
//
// Network faults are first-class: the ring and each endpoint carry a small
// fault state (down, periodic packet loss, stall-until) the injection
// subsystem scripts, and Send reports how many bytes were fully delivered
// so the client library can resume a partial transfer after a retry.
package hippi

import (
	"fmt"
	"time"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// Config carries the calibrated HIPPI parameters.
type Config struct {
	// PacketSetup is the per-packet control overhead (host register
	// accesses across the VME link).
	PacketSetup time.Duration
	// RingMBps is the Ultranet ring bandwidth (the paper's "100
	// megabytes/second HIPPI network").
	RingMBps float64
	// MaxPacket bounds the bytes moved per HIPPI packet; requests larger
	// than this pay additional per-packet setups.
	MaxPacket int
	// DownDetect is what a sender pays to discover that a port on its path
	// is down before failing the transfer.
	DownDetect time.Duration
	// LossDetect is the sender-side timeout to declare a transmitted
	// packet lost (no acknowledgement from the receiver).
	LossDetect time.Duration
	// StallTimeout is how long a sender waits on an unresponsive endpoint
	// before failing with a network timeout; stalls shorter than this are
	// ridden out silently.
	StallTimeout time.Duration
}

// DefaultConfig returns the paper-calibrated parameters.
func DefaultConfig() Config {
	return Config{
		PacketSetup:  1100 * time.Microsecond,
		RingMBps:     100,
		MaxPacket:    2 << 20,
		DownDetect:   500 * time.Microsecond,
		LossDetect:   500 * time.Microsecond,
		StallTimeout: 2 * time.Millisecond,
	}
}

// Endpoint is a HIPPI-attached party: an XBUS board (via its HIPPI
// source/destination ports) or a client workstation (via its NIC model).
type Endpoint struct {
	Name  string
	Out   sim.Hop       // endpoint memory -> network direction
	In    sim.Hop       // network -> endpoint memory direction
	Setup time.Duration // per-packet sender-side setup cost

	fault.Port // down, packet loss and stall, as the fault plan scripts them
}

// Ultranet is the shared ring network.
type Ultranet struct {
	Ring *sim.Link
	cfg  Config

	fault.Port // the whole ring's Down and LossEvery; a ring never stalls
}

// NewUltranet creates the ring.
func NewUltranet(e *sim.Engine, cfg Config) *Ultranet {
	return &Ultranet{
		Ring: sim.NewLink(e, "ultranet", cfg.RingMBps, 0),
		cfg:  cfg,
	}
}

// Send moves n bytes from one endpoint to another across the ring,
// packetized at MaxPacket with per-packet sender setup.  It returns the
// bytes fully delivered to the receiver's memory and the first network
// fault hit: a down ring or endpoint fails before the packet goes out, an
// unresponsive endpoint fails after the sender's stall timeout, and a
// dropped packet fails after its wire time plus the loss-detect timeout.
// Delivered bytes stay delivered — the caller resumes past them on retry.
func (u *Ultranet) Send(p *sim.Proc, from, to *Endpoint, n int) (int, error) {
	defer p.Span("net", "hippi-send")()
	sent := 0
	for n > 0 {
		pkt := n
		if u.cfg.MaxPacket > 0 && pkt > u.cfg.MaxPacket {
			pkt = u.cfg.MaxPacket
		}
		if u.Down || from.Down || to.Down {
			fe := p.Span("net", "link-down")
			p.Wait(u.cfg.DownDetect)
			fe()
			return sent, fmt.Errorf("hippi: %s -> %s: %w", from.Name, to.Name, fault.ErrLinkDown)
		}
		if stall := max(from.Stall(p.Now()), to.Stall(p.Now())); stall > 0 {
			if stall > u.cfg.StallTimeout {
				fe := p.Span("net", "timeout")
				p.Wait(u.cfg.StallTimeout)
				fe()
				return sent, fmt.Errorf("hippi: %s -> %s: %w", from.Name, to.Name, fault.ErrNetTimeout)
			}
			fe := p.Span("net", "stall")
			p.Wait(stall)
			fe()
		}
		end := p.Span("hippi", "packet")
		p.Wait(from.Setup)
		path := sim.Path{}
		if from.Out != nil {
			path = append(path, from.Out)
		}
		path = append(path, u.Ring)
		if to.In != nil {
			path = append(path, to.In)
		}
		path.Send(p, pkt, 0)
		end()
		// Every party on the path counts the packet, so loss periods tick
		// per port, not per transfer.
		ringLost := u.Lose()
		fromLost := from.Lose()
		toLost := to.Lose()
		if ringLost || fromLost || toLost {
			// Zero-length spans attribute the drop to the specific party
			// for the per-port loss section of the utilization table.
			if ringLost {
				p.Span("net", "packet-lost:ultranet")()
			}
			if fromLost {
				p.Span("net", "packet-lost:"+from.Name)()
			}
			if toLost {
				p.Span("net", "packet-lost:"+to.Name)()
			}
			fe := p.Span("net", "packet-lost")
			p.Wait(u.cfg.LossDetect)
			fe()
			return sent, fmt.Errorf("hippi: %s -> %s: %w", from.Name, to.Name, fault.ErrPacketLost)
		}
		sent += pkt
		n -= pkt
	}
	return sent, nil
}

// Loopback moves n bytes out of an endpoint and straight back into it (the
// Figure 6 configuration: XBUS memory -> HIPPI source board -> HIPPI
// destination board -> XBUS memory, with "minimal network protocol
// overhead").
func Loopback(p *sim.Proc, ep *Endpoint, cfg Config, n int) {
	for n > 0 {
		pkt := n
		if cfg.MaxPacket > 0 && pkt > cfg.MaxPacket {
			pkt = cfg.MaxPacket
		}
		n -= pkt
		end := p.Span("hippi", "packet")
		p.Wait(ep.Setup)
		sim.Path{ep.Out, ep.In}.Send(p, pkt, 0)
		end()
	}
}
