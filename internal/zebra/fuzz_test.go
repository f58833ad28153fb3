package zebra

import (
	"bytes"
	"errors"
	"testing"

	"raidii/internal/fault"
	"raidii/internal/server"
	"raidii/internal/sim"
)

// FuzzStripedStore decodes bytes into operations on a 4-server, 1-board
// fleet — stripe-aligned writes, reads at any offset and length, a server
// down or up, RebuildServer — and checks every read against a flat byte
// slice.  An operation may fail only with an error wrapping
// fault.ErrLinkDown, and only when two servers are unhealthy (down, or
// holding stale fragments), or for a rebuild, when its own server is down
// or another one is unhealthy.  A failed write leaves the bytes it covered
// unknown; every other byte must read back as last written.  The file's
// array is lost only while two servers are down: a stripe short of two
// fragments because one server missed it fails by itself.
func FuzzStripedStore(f *testing.F) {
	f.Add([]byte{0, 0, 0xff, 0xff, 1, 0, 0, 0xff, 0xff})
	f.Add([]byte{0, 0, 0x80, 0, 2, 1, 0, 1, 0x40, 0, 3, 1, 4, 1, 1, 0, 0, 0xff, 0xff})
	f.Add([]byte{0, 2, 0xff, 0xff, 2, 0, 2, 2, 1, 0x10, 0, 0x60, 0, 3, 0, 3, 2, 4, 0, 4, 2, 1, 0, 0, 0xff, 0xff})
	// A 28-byte rewrite of a written stripe, then a degraded read: the
	// stripe's parity must still cover the bytes the rewrite left alone.
	f.Add([]byte{0, 0, 0xff, 0xff, 0, 0, 0, 9, 2, 3, 1, 0, 0, 0xff, 0xff})
	// s0 misses stripes 1 and 2, returns, and s1 goes down: a short
	// rewrite of stripe 1 is refused, and a read of stripe 0 and a write
	// of stripe 3 must not find the array failed.
	f.Add([]byte{0, 0, 0xff, 0xff, 2, 0, 0, 1, 0x80, 0, 3, 0, 2, 1, 0, 1, 0, 9, 1, 0, 0, 0, 0x40, 0, 3, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		runFleet(t, 4, 1, fault.Plan{}, func(p *sim.Proc, fl *server.Fleet, z *Store) {
			z, err := New(fl, z.ep, Config{FragmentBytes: 32 << 10, Parity: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := z.Create(p, "f"); err != nil {
				t.Fatal(err)
			}
			m := &storeModel{t: t, p: p, fl: fl, z: z}
			for len(ops) > 0 {
				ops = m.step(ops)
				f := z.files["f"]
				if err := z.track(f); err != nil {
					t.Fatal(err)
				}
				if down := m.down(); f.a.Lost() && down < 2 {
					t.Fatalf("array lost with %d servers down", down)
				}
			}
		})
	})
}

// storeModel is FuzzStripedStore's oracle: the bytes the file must hold,
// which of them are known, and the logical size.
type storeModel struct {
	t     *testing.T
	p     *sim.Proc
	fl    *server.Fleet
	z     *Store
	data  []byte
	known []bool
	size  int
	gen   byte // varies each write's bytes
}

// arg returns the next byte of ops (zero past the end) and the rest.
func arg(ops []byte) (byte, []byte) {
	if len(ops) == 0 {
		return 0, nil
	}
	return ops[0], ops[1:]
}

// unhealthy counts the servers that are down or hold stale fragments.
func (m *storeModel) unhealthy() int {
	n := 0
	for s, sys := range m.fl.Servers {
		if sys.Down() || m.z.StaleFragments(s) > 0 {
			n++
		}
	}
	return n
}

// down counts the servers that are down.
func (m *storeModel) down() int {
	n := 0
	for _, sys := range m.fl.Servers {
		if sys.Down() {
			n++
		}
	}
	return n
}

// allowed fails the test unless err is nil, or a typed error the
// circumstances allow.
func (m *storeModel) allowed(what string, err error, ok bool) {
	m.t.Helper()
	if err == nil {
		return
	}
	if !ok || !errors.Is(err, fault.ErrLinkDown) {
		m.t.Fatalf("%s: %v (unhealthy servers %d)", what, err, m.unhealthy())
	}
}

// step runs the operation at the head of ops and returns the rest.
func (m *storeModel) step(ops []byte) []byte {
	sb := m.z.StripeBytes()
	op, ops := arg(ops)
	switch op % 5 {
	case 0: // write at stripe a, 1 to 2 stripes long
		var a, hi, lo byte
		a, ops = arg(ops)
		hi, ops = arg(ops)
		lo, ops = arg(ops)
		off := int(a%4) * sb
		n := 1 + (int(hi)<<8|int(lo))*2*sb/65536
		m.gen++
		buf := make([]byte, n)
		for i := range buf {
			// Not periodic in any power of two, so a fragment in the wrong
			// place reads back different.
			buf[i] = byte(uint32(int(m.gen)<<24+i) * 2654435761 >> 24)
		}
		err := m.z.Write(m.p, "f", int64(off), buf)
		m.allowed("write", err, m.unhealthy() >= 2)
		if end, old := off+n, len(m.data); end > old {
			m.data = append(m.data, make([]byte, end-old)...)
			m.known = append(m.known, make([]bool, end-old)...)
			for i := old; i < off; i++ {
				m.known[i] = true // a hole no write reached reads as zeros
			}
		}
		copy(m.data[off:], buf)
		for i := off; i < off+n; i++ {
			m.known[i] = err == nil
		}
		if err == nil {
			m.size = max(m.size, off+n)
		}
	case 1: // read anywhere, clamped to the size
		var a, b, c, d byte
		a, ops = arg(ops)
		b, ops = arg(ops)
		c, ops = arg(ops)
		d, ops = arg(ops)
		off := (int(a)<<8 | int(b)) * (m.size + sb/2) / 65536
		n := (int(c)<<8 | int(d)) * 2 * sb / 65536
		// A recycled buffer: ReadInto must write every byte it reports.
		dst := bytes.Repeat([]byte{0xA5}, n)
		k, err := m.z.ReadInto(m.p, "f", int64(off), dst)
		m.allowed("read", err, m.unhealthy() >= 2)
		if err != nil {
			break
		}
		got := dst[:k]
		want := max(min(n, m.size-off), 0)
		if len(got) != want {
			m.t.Fatalf("read(%d,+%d) of a %d-byte file returned %d bytes, want %d", off, n, m.size, len(got), want)
		}
		for i, b := range got {
			if m.known[off+i] && b != m.data[off+i] {
				m.t.Fatalf("read(%d,+%d): byte %d is %#x, want %#x", off, n, off+i, b, m.data[off+i])
			}
		}
	case 2, 3: // server down, server up
		var s byte
		s, ops = arg(ops)
		m.fl.Servers[int(s)%len(m.fl.Servers)].SetDown(op%5 == 2)
	case 4: // rebuild
		var s byte
		s, ops = arg(ops)
		srv := int(s) % len(m.fl.Servers)
		before := m.z.StaleFragments(srv)
		self := m.fl.Servers[srv].Down()
		others := m.unhealthy()
		if self || before > 0 {
			others--
		}
		n, err := m.z.RebuildServer(m.p, srv)
		if self && err == nil {
			m.t.Fatalf("rebuild of down s%d succeeded", srv)
		}
		m.allowed("rebuild", err, self || others > 0)
		after := m.z.StaleFragments(srv)
		if n != before-after || err == nil && after != 0 {
			m.t.Fatalf("rebuild s%d: reports %d, stale %d -> %d (err %v)", srv, n, before, after, err)
		}
	}
	return ops
}
