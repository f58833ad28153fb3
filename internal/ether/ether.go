// Package ether models the 10 megabit/second Ethernet attached to the host
// workstation: RAID-II's low-bandwidth client path ("we maximize
// utilization and performance of the high-bandwidth data path if smaller
// requests use the Ethernet network and larger requests use the HIPPI
// network").
package ether

import (
	"fmt"
	"time"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// Config carries the Ethernet parameters.
type Config struct {
	MbitPerS  float64       // raw wire rate
	PerPacket time.Duration // protocol/driver overhead per packet
	MTU       int
}

// DefaultConfig returns the paper's 10 Mb/s Ethernet; the paper notes an
// Ethernet packet takes about half a millisecond end to end.
func DefaultConfig() Config {
	return Config{MbitPerS: 10, PerPacket: 300 * time.Microsecond, MTU: 1500}
}

// Segment is one shared Ethernet cable.
type Segment struct {
	wire *sim.Link
	cfg  Config

	fault.Port // a segment never stalls: only its Down and LossEvery apply
}

// New creates a segment on engine e.
func New(e *sim.Engine, name string, cfg Config) *Segment {
	// The wire is a serial medium: one frame at a time, with the
	// per-packet overhead folded into link latency.
	return &Segment{
		wire: sim.NewLink(e, name, cfg.MbitPerS/8, cfg.PerPacket),
		cfg:  cfg,
	}
}

// Send transmits n bytes as MTU-sized frames; concurrent senders contend
// frame by frame.  It returns the bytes delivered and the first fault hit:
// a down wire fails before the frame goes out, a dropped frame fails after
// its wire time plus one packet time of retransmit-timeout cost.
func (s *Segment) Send(p *sim.Proc, n int) (int, error) {
	defer p.Span("net", "ether-send")()
	mtu := s.cfg.MTU
	if mtu <= 0 {
		mtu = 1500
	}
	sent := 0
	for n > 0 {
		f := mtu
		if f > n {
			f = n
		}
		if s.Down {
			fe := p.Span("net", "link-down")
			p.Wait(s.cfg.PerPacket)
			fe()
			return sent, fmt.Errorf("ether: %s: %w", s.wire.Name(), fault.ErrLinkDown)
		}
		s.wire.Transfer(p, f)
		if s.Lose() {
			p.Span("net", "packet-lost:"+s.wire.Name())()
			fe := p.Span("net", "packet-lost")
			p.Wait(s.cfg.PerPacket)
			fe()
			return sent, fmt.Errorf("ether: %s: %w", s.wire.Name(), fault.ErrPacketLost)
		}
		sent += f
		n -= f
	}
	return sent, nil
}

// PacketTime reports the duration one full frame occupies the wire.
func (s *Segment) PacketTime() time.Duration {
	return s.wire.XferTime(s.cfg.MTU)
}
