// Package client implements the RAID-II client side: the small library of
// §3.3 that converts RAID file operations (raid_open, raid_read,
// raid_write) into operations on an Ultranet socket — "The advantage of
// this approach is that it doesn't require changes to the client operating
// system" — plus the workstation models whose memory systems bound
// single-client bandwidth (§3.4: a SPARCstation 10/51 reads 3.2 MB/s and
// writes 3.1 MB/s because its "user-level network interface implementation
// performs many copy operations").
//
// The library is fault-aware end to end: requests carry a deadline, fail
// with typed errors (fault.ErrLinkDown, fault.ErrNetTimeout, ...), retry
// transient faults with deterministic exponential backoff on the simulated
// clock, and resume partial transfers past the chunks that already landed.
package client

import (
	"errors"
	"fmt"
	"time"

	"raidii/internal/fault"
	"raidii/internal/hippi"
	"raidii/internal/host"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// Workstation is a HIPPI-attached client machine.
type Workstation struct {
	sys  *server.System
	Host *host.Host
	NIC  *sim.Link
	EP   *hippi.Endpoint

	// Retry is the workstation's request retry/timeout policy, inherited
	// from the server Config's ClientRetry at attach time; tests and
	// experiments may replace it before issuing requests.
	Retry fault.RetryPolicy

	stats Stats
}

// Stats counts the client library's fault handling.
type Stats struct {
	// Retries is how many request attempts were resent after a transient
	// failure.
	Retries uint64
	// Deadlines is how many requests were abandoned at their deadline.
	Deadlines uint64
}

// NewWorkstation attaches a client of the given host model to the system's
// Ultranet.  The endpoint registers with the server so scripted
// PortClientNIC fault events can reach it, in attachment order.
func NewWorkstation(sys *server.System, name string, cfg host.Config) *Workstation {
	h := host.New(sys.Eng, cfg)
	nic := sim.NewLink(sys.Eng, name+":nic", 40, 0)
	ws := &Workstation{
		sys:   sys,
		Host:  h,
		NIC:   nic,
		EP:    &hippi.Endpoint{Name: name, Out: nic, In: nic, Setup: 300 * time.Microsecond},
		Retry: sys.Cfg.ClientRetry,
	}
	sys.RegisterClientEndpoint(ws.EP)
	return ws
}

// Stats returns the workstation's fault-handling counters.
func (ws *Workstation) Stats() Stats { return ws.stats }

// withRetry runs one client request under the workstation's retry policy.
// attempt is invoked with the bytes already completed by earlier attempts
// (so transfers resume rather than restart) and reports how many more it
// completed before succeeding or failing.
func (ws *Workstation) withRetry(p *sim.Proc, what string, attempt func(resume int) (int, error)) error {
	done, tries := 0, 0
	err := ws.Retry.Run(p, "client", "client: "+what, func() error {
		if tries++; tries > 1 {
			ws.stats.Retries++
		}
		n, err := attempt(done)
		done += n
		return err
	})
	if errors.Is(err, fault.ErrDeadline) {
		ws.stats.Deadlines++
	}
	return err
}

// File is an open RAID file reached through the client library.
type File struct {
	ws    *Workstation
	board *server.Board
	f     *server.FSFile
	path  string
}

// Open performs raid_open: the library opens a socket to the server, sends
// the open command, and the RAID-II host performs the name lookup on the
// low-bandwidth path.  Transient network faults are retried under the
// workstation's policy.
func (ws *Workstation) Open(p *sim.Proc, boardIdx int, path string) (*File, error) {
	req := telemetry.Begin(p, "client-open")
	var f *File
	err := ws.withRetry(p, "raid_open "+path, func(int) (int, error) {
		ff, err := ws.openOnce(p, boardIdx, path, false)
		f = ff
		return 0, err
	})
	req.End(p, err)
	return f, err
}

// Create performs raid_open with creation semantics.
func (ws *Workstation) Create(p *sim.Proc, boardIdx int, path string) (*File, error) {
	req := telemetry.Begin(p, "client-create")
	var f *File
	err := ws.withRetry(p, "raid_create "+path, func(int) (int, error) {
		ff, err := ws.openOnce(p, boardIdx, path, true)
		f = ff
		return 0, err
	})
	req.End(p, err)
	return f, err
}

func (ws *Workstation) openOnce(p *sim.Proc, boardIdx int, path string, create bool) (*File, error) {
	b := ws.sys.Boards[boardIdx]
	// Command exchange: small control messages over the Ultranet, plus the
	// host's name-resolution work.
	if _, err := ws.sys.Ultra.Send(p, ws.EP, b.HEP, 256); err != nil {
		return nil, err
	}
	var f *server.FSFile
	var err error
	if create {
		ws.sys.Host.CPUWork(p, 3*time.Millisecond)
		f, err = b.CreateFS(p, path)
	} else {
		ws.sys.Host.CPUWork(p, 2*time.Millisecond)
		f, err = b.OpenFS(p, path)
	}
	if err != nil {
		return nil, err
	}
	if _, err := ws.sys.Ultra.Send(p, b.HEP, ws.EP, 128); err != nil {
		return nil, err
	}
	return &File{ws: ws, board: b, f: f, path: path}, nil
}

// Read performs raid_read: the server pipelines disk reads with network
// sends while the client receives into application memory through its
// copy-bound user-level library.  It returns the simulated duration of the
// whole request, retries and backoff included.  A transient fault costs a
// retry that resumes past the chunks already delivered, not a failed op.
func (fl *File) Read(p *sim.Proc, off int64, n int) (time.Duration, error) {
	req := telemetry.Begin(p, "client-read")
	start := p.Now()
	err := fl.ws.withRetry(p, "raid_read "+fl.path, func(resume int) (int, error) {
		return fl.readOnce(p, off+int64(resume), n-resume)
	})
	req.End(p, err)
	return time.Duration(p.Now().Sub(start)), err
}

// readOnce is one raid_read attempt.  It returns the bytes delivered to the
// client before any failure, at piece granularity: a piece interrupted
// mid-transfer is resent whole on the next attempt.
func (fl *File) readOnce(p *sim.Proc, off int64, n int) (int, error) {
	ws := fl.ws
	sys := ws.sys
	b := fl.board

	// Read command (file position and length) to the server.
	if _, err := sys.Ultra.Send(p, ws.EP, b.HEP, 128); err != nil {
		return 0, err
	}
	sys.Host.CPUWork(p, server.FSReadOverhead)

	// Server side: the handle's read stream reads pieces into XBUS buffers
	// while the HIPPI source board sends landed ones to the client in order;
	// the client's socket-library copies bound its receive rate.
	var sendErr error
	done, err := fl.f.Stream(p, off, n, func(p *sim.Proc, c int) error {
		if _, sendErr = sys.Ultra.Send(p, b.HEP, ws.EP, c); sendErr != nil {
			return sendErr
		}
		// Client-side copies out of the socket into application memory.
		ws.Host.CopyAsync(p, c)
		return nil
	})
	if err != nil && err != sendErr {
		err = fmt.Errorf("client: read %s at %d: %w", fl.path, off+int64(done), err)
	}
	return done, err
}

// Write performs raid_write: the client's copy-limited library pushes data
// over the Ultranet; the server lands it in XBUS memory and appends it to
// the LFS log.  It returns the simulated duration of the whole request,
// retries included; retries resume past the chunks already written.
func (fl *File) Write(p *sim.Proc, off int64, n int) (time.Duration, error) {
	req := telemetry.Begin(p, "client-write")
	start := p.Now()
	err := fl.ws.withRetry(p, "raid_write "+fl.path, func(resume int) (int, error) {
		return fl.writeOnce(p, off+int64(resume), n-resume)
	})
	req.End(p, err)
	return time.Duration(p.Now().Sub(start)), err
}

// writeOnce is one raid_write attempt, returning the bytes durably handed
// to the server before any failure.
func (fl *File) writeOnce(p *sim.Proc, off int64, n int) (int, error) {
	ws := fl.ws
	sys := ws.sys
	b := fl.board
	if _, err := sys.Ultra.Send(p, ws.EP, b.HEP, 128); err != nil {
		return 0, err
	}
	sys.Host.CPUWork(p, server.FSWriteOverhead)

	// One reusable transfer buffer per request, a piece long.
	buf := make([]byte, min(n, server.PipelineChunk))
	done := 0
	for done < n {
		c := min(n-done, server.PipelineChunk)
		at := off + int64(done)
		// Client copies into socket buffers, then the wire transfer.
		ws.Host.CopyAsync(p, c)
		if _, err := sys.Ultra.Send(p, ws.EP, b.HEP, c); err != nil {
			return done, err
		}
		b.XB.Buffers.AcquireN(p, c)
		_, werr := fl.f.File.WriteAt(p, buf[:c], at)
		b.XB.Buffers.ReleaseN(c)
		if werr != nil {
			return done, fmt.Errorf("client: write %s at %d: %w", fl.path, at, werr)
		}
		done += c
	}
	return done, nil
}

// Size returns the file size as seen by the server.
func (fl *File) Size(p *sim.Proc) (int64, error) { return fl.f.File.Size(p) }

// String describes the open file.
func (fl *File) String() string { return fmt.Sprintf("raidfile(%s)", fl.path) }
