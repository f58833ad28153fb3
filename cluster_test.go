package raidii

import (
	"bytes"
	"runtime"
	"testing"
)

// nonzero returns n bytes that are never zero, starting at pattern offset
// at, so a byte left from another read can never pass for a hole's zero.
func nonzero(at, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((at+i)%255) + 1
	}
	return b
}

// TestClusterReadRecycledBufferHoldsNoStaleBytes: ClusterFile.Read lends
// its handle's buffer, so each read must write every byte it returns over
// whatever the last read left there.  One handle reads the whole file,
// then a short read that ends at EOF, then a range no write reached (the
// rest of a half-written stripe and an unwritten one), then, with a host
// down, a degraded read over the same range; every result is compared with
// an oracle of the file.
func TestClusterReadRecycledBufferHoldsNoStaleBytes(t *testing.T) {
	cl, err := NewCluster(WithServers(4), WithDisksPerString(1), WithStripeFragmentKB(64))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Simulate(func(task *ClusterTask) error {
		if err := task.FormatFS(); err != nil {
			return err
		}
		sb, err := task.StripeBytes()
		if err != nil {
			return err
		}
		f, err := task.Create("f")
		if err != nil {
			return err
		}
		// Stripe 0 whole, stripe 1 half, stripe 2 never, stripe 3 a third:
		// the file ends inside stripe 3 and holds two runs of zeros.
		size := 3*sb + sb/3
		oracle := make([]byte, size)
		for _, w := range [][2]int{{0, sb}, {sb, sb / 2}, {3 * sb, sb / 3}} {
			data := nonzero(w[0], w[1])
			if _, err := f.Write(int64(w[0]), data); err != nil {
				return err
			}
			copy(oracle[w[0]:], data)
		}
		if err := task.Sync(); err != nil {
			return err
		}
		for _, r := range []struct {
			name    string
			off, n  int
			killing int // the host down for this read, or -1
		}{
			{"whole file", 0, size, -1},
			{"short read at EOF", 3 * sb, sb, -1},
			{"no write reached", sb + sb/2, sb, -1},
			{"stripe 0 again", 0, sb, -1},
			{"degraded, no write reached", sb, 2 * sb, 1},
			{"degraded, whole file", 0, size + sb, 1},
		} {
			if r.killing >= 0 {
				task.KillServer(r.killing)
			}
			got, _, err := f.Read(int64(r.off), r.n)
			if err != nil {
				return err
			}
			want := oracle[r.off:min(r.off+r.n, size)]
			if len(got) != len(want) {
				t.Errorf("%s: read %d bytes, want %d", r.name, len(got), len(want))
				continue
			}
			if i := firstDiff(got, want); i >= 0 {
				t.Errorf("%s: byte %d is %#x, want %#x", r.name, r.off+i, got[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestClusterReadLeasePerHandle: the lease belongs to the handle, so two
// handles on one file, in one process, keep their own bytes: a read on one
// never rewrites what the other lent.
func TestClusterReadLeasePerHandle(t *testing.T) {
	cl, err := NewCluster(WithServers(3), WithDisksPerString(1), WithStripeFragmentKB(64))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Simulate(func(task *ClusterTask) error {
		if err := task.FormatFS(); err != nil {
			return err
		}
		sb, err := task.StripeBytes()
		if err != nil {
			return err
		}
		f, err := task.Create("f")
		if err != nil {
			return err
		}
		data := nonzero(0, 2*sb)
		if _, err := f.Write(0, data); err != nil {
			return err
		}
		g, err := task.Open("f")
		if err != nil {
			return err
		}
		a, _, err := f.Read(0, sb)
		if err != nil {
			return err
		}
		b, _, err := g.Read(int64(sb), sb)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, data[:sb]) {
			t.Error("the first handle's bytes changed when the second read")
		}
		if !bytes.Equal(b, data[sb:]) {
			t.Error("the second handle read the wrong bytes")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClusterReadAllocs: a warm whole-stripe read (2,880 KB on four
// Figure 8 hosts, the cluster_stripe benchmark's request) reads into the
// handle's buffer, so it allocates well under the bytes it returns.  A
// read that makes its result allocates at least all of them.
func TestClusterReadAllocs(t *testing.T) {
	cl, err := NewCluster(Fig8Geometry(), WithServers(4))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	// Each reading first joins every drive's copy in flight, which would
	// otherwise materialize its pages on either side of the reading.
	readMemStats := func(m *runtime.MemStats) {
		for _, sys := range cl.Fleet().Servers {
			for _, b := range sys.Boards {
				for _, d := range b.Disks {
					d.Drive.ReadData(0, 1)
				}
			}
		}
		runtime.ReadMemStats(m)
	}
	n := 0
	_, err = cl.Simulate(func(task *ClusterTask) error {
		if err := task.FormatFS(); err != nil {
			return err
		}
		if n, err = task.StripeBytes(); err != nil {
			return err
		}
		f, err := task.Create("f")
		if err != nil {
			return err
		}
		data := nonzero(0, n)
		if _, err := f.Write(0, data); err != nil {
			return err
		}
		if err := task.Sync(); err != nil {
			return err
		}
		for pass := 0; pass < 2; pass++ { // the first warms the handle and the store
			readMemStats(&before)
			got, _, err := f.Read(0, n)
			readMemStats(&after)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read returned wrong bytes")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("a warm %d-byte read allocates %.3f bytes per byte returned", n, got)
	if got > 0.25 {
		t.Errorf("a warm %d-byte read allocates %.2f bytes per byte returned (ceiling 0.25)", n, got)
	}
}
