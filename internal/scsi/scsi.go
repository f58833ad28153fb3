// Package scsi models the disk attachment hardware between the drives and
// the XBUS board: SCSI strings (shared buses) and the Interphase Cougar
// dual-string VME disk controllers.  The paper measures a Cougar at about 3
// megabytes/second per string — less than three streaming drives — which is
// one of the two hardware limits (with the VME disk ports) that hold
// RAID-II below its 40 MB/s design target; Figure 7 quantifies the string
// ceiling.
package scsi

import (
	"errors"
	"fmt"
	"time"

	"raidii/internal/disk"
	"raidii/internal/fault"
	"raidii/internal/sim"
)

// Config carries the calibrated Cougar/SCSI parameters.
type Config struct {
	// StringMBps is the usable bandwidth of one SCSI string through the
	// Cougar ("the Cougar disk controller ... only supports about 3
	// megabytes/second on each of two SCSI strings").
	StringMBps float64
	// ControllerMBps is the Cougar's aggregate ceiling ("The Cougar disk
	// controllers can transfer data at 8 megabytes/second").
	ControllerMBps float64
	// CmdOverhead is per-command controller firmware time.
	CmdOverhead time.Duration

	// RetryBudget is how many times the controller reissues a command that
	// failed with a retryable error (medium error, timeout) before
	// escalating it to the array layer.  0 disables retries.
	RetryBudget int
	// RetryBackoff is the deterministic delay before retry k (1-based):
	// k * RetryBackoff.  The linear ramp is what the firmware of the era
	// did; anything randomized would break trace determinism.
	RetryBackoff time.Duration
	// CmdTimeout bounds how long the controller waits for an unresponsive
	// (stalled) drive before declaring a timeout.  0 means wait forever.
	CmdTimeout time.Duration
}

// DefaultConfig returns the paper-calibrated parameters.
func DefaultConfig() Config {
	return Config{
		StringMBps:     3.2,
		ControllerMBps: 8.0,
		CmdOverhead:    400 * time.Microsecond,
		RetryBudget:    2,
		RetryBackoff:   10 * time.Millisecond,
		CmdTimeout:     500 * time.Millisecond,
	}
}

// String is one SCSI bus: drives on the same string share its bandwidth.
type String struct {
	Bus   *sim.Link
	disks []*Disk
}

// Controller is an Interphase Cougar: two SCSI strings behind a shared
// controller data path and a command processor.
type Controller struct {
	name    string
	cfg     Config
	Strings [2]*String
	ctlBus  *sim.Link
	cmd     *sim.Server
}

// NewController creates a Cougar with two empty strings.
func NewController(e *sim.Engine, name string, cfg Config) *Controller {
	c := &Controller{
		name:   name,
		cfg:    cfg,
		ctlBus: sim.NewLink(e, name+":ctl", cfg.ControllerMBps, 0),
		cmd:    sim.NewServer(e, name+":cmd", 1),
	}
	for i := range c.Strings {
		c.Strings[i] = &String{
			Bus: sim.NewLink(e, fmt.Sprintf("%s:string%d", name, i), cfg.StringMBps, 0),
		}
	}
	return c
}

// Attach places drive d on string s of the controller and returns the
// addressable attached disk.
func (c *Controller) Attach(d *disk.Disk, s int) *Disk {
	ad := &Disk{Drive: d, ctl: c, str: c.Strings[s]}
	c.Strings[s].disks = append(c.Strings[s].disks, ad)
	return ad
}

// Disks returns every disk attached to the controller, string 0 first.
func (c *Controller) Disks() []*Disk {
	var out []*Disk
	for _, s := range c.Strings {
		out = append(out, s.disks...)
	}
	return out
}

// Disk is a drive as seen through its string and controller: every data
// transfer traverses the string bus and the controller's internal bus
// before reaching whatever upstream path (VME port, XBUS memory) the caller
// supplies.
type Disk struct {
	Drive *disk.Disk
	ctl   *Controller
	str   *String
}

// Bound is a disk bound to the upstream paths its transfers take, both
// decided once: a raid.Dev.  It is still the *Disk, for its Drive and
// StallString.
type Bound struct {
	*Disk
	read, write sim.Path // drive -> string -> controller -> upstream, and back
}

// Bind builds the disk's bus paths: reads leave through readUp, writes
// arrive through writeUp.  (A simulated Path is direction-agnostic: each
// hop is a half-duplex resource a chunk occupies in order.)
func (ad *Disk) Bind(readUp, writeUp sim.Path) *Bound {
	read := append(sim.Path{ad.str.Bus, ad.ctl.ctlBus}, readUp...)
	write := append(append(sim.Path{}, writeUp...), ad.ctl.ctlBus, ad.str.Bus)
	return &Bound{Disk: ad, read: read, write: write}
}

// Read reads n sectors at lba through upstream into a fresh buffer.
func (ad *Disk) Read(p *sim.Proc, lba int64, n int, upstream sim.Path) ([]byte, error) {
	return ad.Bind(upstream, nil).Read(p, lba, n)
}

// ReadInto reads the sectors at lba through upstream into dst.
func (ad *Disk) ReadInto(p *sim.Proc, lba int64, dst []byte, upstream sim.Path) error {
	return ad.Bind(upstream, nil).ReadInto(p, lba, dst)
}

// Write writes data at lba, arriving through upstream.
func (ad *Disk) Write(p *sim.Proc, lba int64, data []byte, upstream sim.Path) error {
	return ad.Bind(nil, upstream).Write(p, lba, data)
}

// Read reads n sectors at lba into a fresh buffer; see ReadInto.
func (bd *Bound) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	buf := make([]byte, n*bd.SectorSize())
	if err := bd.ReadInto(p, lba, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto reads the sectors at lba into the caller's dst; data flows drive
// -> string -> controller -> upstream, pipelined per chunk.  Retryable
// failures (medium errors, timeouts on a stalled string) are reissued up to
// the controller's retry budget with deterministic linear backoff; what
// still fails after that is returned for the array layer to escalate.
func (bd *Bound) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	end := p.Span("scsi", "read")
	defer end()
	return bd.issue(p, func(q *sim.Proc) error {
		return bd.Drive.ReadInto(q, lba, dst, bd.read)
	})
}

// Write writes data at lba; data flows upstream -> controller -> string ->
// drive.  Failures retry like reads.
func (bd *Bound) Write(p *sim.Proc, lba int64, data []byte) error {
	end := p.Span("scsi", "write")
	defer end()
	return bd.issue(p, func(q *sim.Proc) error {
		return bd.Drive.Write(q, lba, data, bd.write)
	})
}

// issue runs one command through the controller's retry discipline: charge
// command overhead, check the drive responds within the command timeout,
// run the transfer, and on a retryable error back off k*RetryBackoff and
// reissue, up to RetryBudget retries.  A dead drive is not retried.
func (ad *Disk) issue(p *sim.Proc, op func(*sim.Proc) error) error {
	cfg := ad.ctl.cfg
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			endB := p.Span("scsi", "retry")
			p.Wait(time.Duration(attempt) * cfg.RetryBackoff)
			endB()
		}
		ad.ctl.cmd.Use(p, cfg.CmdOverhead)
		err := ad.waitReady(p)
		if err == nil {
			if err = op(p); err == nil {
				return nil
			}
		}
		lastErr = err
		if errors.Is(err, fault.ErrDiskFailed) || attempt >= cfg.RetryBudget {
			return lastErr
		}
	}
}

// waitReady models target selection against a stalled drive: if the drive
// will not respond within the command timeout the selection times out;
// shorter stalls are simply waited through.
func (ad *Disk) waitReady(p *sim.Proc) error {
	stall := ad.Drive.Port.Stall(p.Now())
	if stall <= 0 {
		return nil
	}
	timeout := ad.ctl.cfg.CmdTimeout
	if timeout > 0 && stall > timeout {
		endS := p.Span("scsi", "timeout")
		p.Wait(timeout)
		endS()
		return fmt.Errorf("scsi: selection timeout after %v: %w", timeout, fault.ErrTimeout)
	}
	endS := p.Span("scsi", "stall")
	p.Wait(stall)
	endS()
	return nil
}

// StallString hangs every drive on this disk's SCSI string until the given
// simulated time, modelling a wedged bus: commands issued meanwhile run
// into the controller's command timeout.
func (ad *Disk) StallString(until sim.Time) {
	for _, d := range ad.str.disks {
		d.Drive.Port.StallUntil(until)
	}
}

// Sectors returns the drive's sector count.
func (ad *Disk) Sectors() int64 { return ad.Drive.Sectors() }

// SectorSize returns the drive's sector size.
func (ad *Disk) SectorSize() int { return ad.Drive.SectorSize() }
