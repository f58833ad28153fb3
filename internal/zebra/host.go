package zebra

import (
	"fmt"

	"raidii/internal/server"
	"raidii/internal/sim"
)

// host is one server as a column device of one striped file's array: a
// byte-addressed device (one-byte sectors) on which stripe s's column, the
// server's fragment of it, is the FragmentBytes at s*FragmentBytes.  The
// host stores a fragment in a backing file on one of its boards and ships
// it over the ring; which column a fragment is, the array decides.
type host struct {
	z           *Store
	f           *file
	srv         int
	data, check []*server.FSFile // per board: data fragments, check fragments (none without parity)
}

// Sectors returns the device size in bytes.
func (h *host) Sectors() int64 { return maxStripes * int64(h.z.cfg.FragmentBytes) }

// SectorSize is one byte: a fragment holds any number of bytes.
func (h *host) SectorSize() int { return 1 }

// Read returns n bytes at lba in a new buffer.
func (h *host) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := h.ReadInto(p, lba, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto reads each fragment dst covers on its server and ships it to
// the client one track of the board's drives at a time.  The fragment is
// one read whose device runs are cut into track-sized commands, all in
// flight at once, and each piece goes on the ring as soon as its own
// command returns: the ring carries the first tracks of every disk's share
// while the disks still read the rest, so the client's ring attachment
// drains the fragment alongside the disks rather than after them.
func (h *host) ReadInto(p *sim.Proc, lba int64, dst []byte) error {
	return h.fragments(lba, dst, func(bf *server.FSFile, off int64, dst []byte) error {
		sys := h.z.fleet.Servers[h.srv]
		send := func(q *sim.Proc, _, n int) error {
			_, err := h.z.fleet.Ultra.Send(q, bf.Board.HEP, h.z.ep, n)
			return err
		}
		track := sys.Cfg.DiskSpec.SectorsPerTrack * sys.Cfg.DiskSpec.SectorSize
		n, err := bf.File.ReadAtPieces(p, off, dst, track, send)
		if err == nil && n < len(dst) {
			clear(dst[n:]) // what the backing file does not hold reads as zeros
			err = send(p, n, len(dst)-n)
		}
		if err != nil {
			return fmt.Errorf("fragment from s%d: %w", h.srv, err)
		}
		return nil
	})
}

// Write ships each fragment data covers over the ring and stores it in its
// backing file; a rebuild run of several stripes goes a fragment at a time.
func (h *host) Write(p *sim.Proc, lba int64, data []byte) error {
	return h.fragments(lba, data, func(bf *server.FSFile, off int64, data []byte) error {
		if _, err := h.z.fleet.Ultra.Send(p, h.z.ep, bf.Board.HEP, len(data)); err != nil {
			return fmt.Errorf("fragment to s%d: %w", h.srv, err)
		}
		if _, err := bf.File.WriteAt(p, data, off); err != nil {
			return fmt.Errorf("fragment store on s%d: %w", h.srv, err)
		}
		return nil
	})
}

// fragments cuts the range buf covers at lba into its stripes' fragments and
// runs fn on each in order, with the fragment's backing file and offset.
func (h *host) fragments(lba int64, buf []byte, fn func(bf *server.FSFile, off int64, b []byte) error) error {
	frag := int64(h.z.cfg.FragmentBytes)
	for len(buf) > 0 {
		s, at := lba/frag, lba%frag
		n := min(frag-at, int64(len(buf)))
		bf, off := h.place(s)
		if err := fn(bf, off+at, buf[:n]); err != nil {
			return err
		}
		lba, buf = lba+n, buf[n:]
	}
	return nil
}

// place returns where stripe s's fragment lives on this server.  The board
// rotates with the stripe; the fragment goes to the board's check file when
// the array makes it a check column, else to its data file, and either file
// stays dense: the fragment's offset counts the board's earlier stripes
// whose fragment here went to the same file.  Keeping the two roles apart
// means a streaming client reads each board's data file strictly
// sequentially — no gaps where a rotating parity fragment would sit — which
// is what lets the LFS coalesce the reads into full-bandwidth device
// transfers.
func (h *host) place(s int64) (*server.FSFile, int64) {
	nb := int64(len(h.data))
	b, j := s%nb, s/nb // the board, and s's index among the board's stripes
	// A column's role recurs every lcm(boards, width) stripes, which is a
	// period of lcm/nb of the board's own stripes: count the checks in one
	// period, and in the part of a period before s.
	period := lcm(nb, int64(h.z.Width())) / nb
	var checks, before int64
	for i := int64(0); i < period; i++ {
		if h.isCheck(b + i*nb) {
			checks++
			if i < j%period {
				before++
			}
		}
	}
	before += j / period * checks
	frag := int64(h.z.cfg.FragmentBytes)
	if h.isCheck(s) {
		return h.check[b], before * frag
	}
	return h.data[b], (j - before) * frag
}

// isCheck reports whether this server's fragment of stripe s is a check
// column.
func (h *host) isCheck(s int64) bool { return h.f.a.Role(s, h.srv) >= h.f.a.DataDisks() }

func lcm(a, b int64) int64 {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}
