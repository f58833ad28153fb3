package raid

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// TestMemDevFaultInjection checks the test device's own fault surface.
func TestMemDevFaultInjection(t *testing.T) {
	e := sim.New()
	m := NewMemDev(64, tSec)
	runProc(e, func(p *sim.Proc) {
		if _, err := m.Read(p, 0, 4); err != nil {
			t.Fatalf("healthy read: %v", err)
		}
		m.AddLatentError(2, 2)
		if _, err := m.Read(p, 0, 4); !errors.Is(err, fault.ErrMedium) {
			t.Fatalf("read over bad sectors = %v, want ErrMedium", err)
		}
		// A write over the range remaps it.
		if err := m.Write(p, 0, make([]byte, 4*tSec)); err != nil {
			t.Fatalf("remapping write: %v", err)
		}
		if _, err := m.Read(p, 0, 4); err != nil {
			t.Fatalf("read after remap: %v", err)
		}
		m.Fail()
		if _, err := m.Read(p, 0, 1); !errors.Is(err, fault.ErrDiskFailed) {
			t.Fatalf("read from failed dev = %v, want ErrDiskFailed", err)
		}
		if err := m.Write(p, 0, make([]byte, tSec)); !errors.Is(err, fault.ErrDiskFailed) {
			t.Fatalf("write to failed dev = %v, want ErrDiskFailed", err)
		}
	})
}

// TestMemDevLatentSplitKeepsLaterRuns: a write strictly inside one bad run
// splits it and leaves the runs listed after it armed.
func TestMemDevLatentSplitKeepsLaterRuns(t *testing.T) {
	e := sim.New()
	m := NewMemDev(128, tSec)
	m.AddLatentError(10, 10)
	m.AddLatentError(100, 10)
	runProc(e, func(p *sim.Proc) {
		if err := m.Write(p, 15, make([]byte, tSec)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Read(p, 15, 1); err != nil {
			t.Errorf("rewritten sector 15: %v", err)
		}
		for _, lba := range []int64{10, 14, 16, 19, 100, 109} {
			if _, err := m.Read(p, lba, 1); !errors.Is(err, fault.ErrMedium) {
				t.Errorf("sector %d: err = %v, want ErrMedium", lba, err)
			}
		}
	})
}

// TestReadEscalatesDeviceErrorToDegraded: a device error during a read must
// mark the disk failed, serve the data over the degraded path, and count
// the escalation — all without the caller seeing anything but correct bytes.
func TestReadEscalatesDeviceErrorToDegraded(t *testing.T) {
	e := sim.New()
	a, mems := newArray(t, e, 5, Level5)
	data := patterned(40*tSec, 5)
	runProc(e, func(p *sim.Proc) {
		_ = a.Write(p, 0, data)
		mems[1].Fail()
		got, _ := a.Read(p, 0, 40)
		if !bytes.Equal(got, data) {
			t.Fatal("read through escalated failure returned wrong bytes")
		}
	})
	if !a.Failed(1) {
		t.Fatal("device error did not escalate to a disk failure")
	}
	st := a.Stats()
	if st.DeviceErrors == 0 || st.DiskFailures != 1 {
		t.Fatalf("stats = %+v, want DeviceErrors>0 and DiskFailures=1", st)
	}
	if st.DegradedReads == 0 {
		t.Fatal("escalated read did not go through the degraded path")
	}
}

// TestWriteSurvivesEscalation: a disk that dies mid-write leaves the stripe
// reconstructable — parity reflects the new data, so the lost column reads
// back correctly through reconstruction.
func TestWriteSurvivesEscalation(t *testing.T) {
	e := sim.New()
	a, mems := newArray(t, e, 5, Level5)
	base := patterned(40*tSec, 1)
	update := patterned(40*tSec, 9)
	runProc(e, func(p *sim.Proc) {
		_ = a.Write(p, 0, base)
		mems[2].Fail()
		_ = a.Write(p, 0, update)
		got, _ := a.Read(p, 0, 40)
		if !bytes.Equal(got, update) {
			t.Fatal("data written during escalation did not read back")
		}
	})
	if !a.Failed(2) {
		t.Fatal("write-path device error did not escalate")
	}
}

// TestSmallWriteCarriesOnInPlace: a latent error under the old data of a
// read-modify-write escalates the disk mid-flight.  At every parity level the
// write carries on in place — the lost column's old contents are solved from
// its peers and the delta folded into the check columns already read — rather
// than starting over as a reconstruct-write.
func TestSmallWriteCarriesOnInPlace(t *testing.T) {
	for _, level := range []Level{Level5, Level6} {
		t.Run(level.String(), func(t *testing.T) {
			e := sim.New()
			a, mems := newArray(t, e, 6, level)
			oracle := patterned(int(a.Sectors())*tSec, 3)
			lba := int64(a.DataDisks()*tUnit) + 1 // stripe 1, data column 0, second sector
			dev := a.colDev(1, 0)
			runProc(e, func(p *sim.Proc) {
				if err := a.Write(p, 0, oracle); err != nil {
					t.Fatal(err)
				}
				mems[dev].AddLatentError(a.unitLBA(1)+1, 1)
				update := patterned(tSec, 77)
				if err := a.Write(p, lba, update); err != nil {
					t.Fatal(err)
				}
				copy(oracle[lba*tSec:], update)
				if st := a.Stats(); !a.Failed(dev) || st.SmallWrites != 1 || st.ReconstructWrites != 0 {
					t.Fatalf("failed=%v stats=%+v, want the disk escalated and one read-modify-write", a.Failed(dev), st)
				}
				if _, err := a.Reconstruct(p, dev, NewMemDev(256, tSec)); err != nil {
					t.Fatal(err)
				}
				got, err := a.Read(p, 0, int(a.Sectors()))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, oracle) {
					t.Fatal("read-back after the rebuild differs from what was written")
				}
				if bad := a.CheckParity(p); bad != 0 {
					t.Fatalf("%d inconsistent stripes after the rebuild", bad)
				}
			})
		})
	}
}

// TestLatentErrorEscalatesAndReconstructs: a latent sector error (not a
// whole-disk failure) still escalates after the device reports it, and the
// original bytes come back via parity.
func TestLatentErrorEscalatesAndReconstructs(t *testing.T) {
	e := sim.New()
	a, mems := newArray(t, e, 5, Level5)
	data := patterned(40*tSec, 2)
	runProc(e, func(p *sim.Proc) {
		_ = a.Write(p, 0, data)
		// Poison one sector on device 0's copy of the data.
		mems[0].AddLatentError(1, 1)
		got, _ := a.Read(p, 0, 40)
		if !bytes.Equal(got, data) {
			t.Fatal("latent-error read returned wrong bytes")
		}
	})
	if !a.Failed(0) {
		t.Fatal("latent error did not escalate to a disk failure")
	}
}

// TestLevel0ErrorLosesEveryStripe: Level 0 is the row of the level table
// that tolerates zero losses, so a device error is a loss beyond redundancy
// like any other — the read reports ErrArrayFailed, never zeros with a nil
// error — and every stripe has a column on the failed device, so later reads
// and writes fail too.
func TestLevel0ErrorLosesEveryStripe(t *testing.T) {
	e := sim.New()
	a, mems := newArray(t, e, 4, Level0)
	data := patterned(16*tSec, 3)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, data); err != nil {
			t.Fatal(err)
		}
		mems[0].Fail()
		if got, err := a.Read(p, 0, 16); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("read over a dead Level 0 device = %v, %v; want ErrArrayFailed", got, err)
		}
		// Extents on the surviving devices are refused too: the loss is the
		// stripe's, not the extent's.
		if _, err := a.Read(p, tUnit, tUnit); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("later read = %v, want ErrArrayFailed", err)
		}
		if err := a.Write(p, 0, data); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("later write = %v, want ErrArrayFailed", err)
		}
	})
	if !a.Lost() || !a.Failed(0) {
		t.Fatal("device error at Level 0 did not lose the array")
	}
	if st := a.Stats(); st.DeviceErrors == 0 || st.DegradedReads != 0 {
		t.Fatalf("stats = %+v, want the device error counted and no degraded reads", st)
	}
	if err := a.FailDisk(1); err == nil {
		t.Fatal("FailDisk accepted at a level that tolerates no loss")
	}
}

// TestReplaceDiskBackgroundRebuild: ReplaceDisk runs Reconstruct in the
// background, the handle reports completion, and the array is healthy with
// correct contents afterwards.
func TestReplaceDiskBackgroundRebuild(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	data := patterned(200*tSec, 7)
	runProc(e, func(p *sim.Proc) {
		_ = a.Write(p, 0, data)
		if err := a.FailDisk(1); err != nil {
			t.Fatal(err)
		}
		spare := NewMemDev(256, tSec)
		rb, err := a.ReplaceDisk(1, spare)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Done() {
			t.Fatal("rebuild reported done before running")
		}
		stripes, err := rb.Wait(p)
		if err != nil {
			t.Fatal(err)
		}
		if stripes == 0 {
			t.Fatal("no stripes rebuilt")
		}
		if !rb.Done() {
			t.Fatal("handle not done after Wait")
		}
		got, _ := a.Read(p, 0, 200)
		if !bytes.Equal(got, data) {
			t.Fatal("rebuilt array returned wrong bytes")
		}
	})
	if a.Failed(1) {
		t.Fatal("disk still failed after rebuild")
	}
	if a.Stats().RebuildStripes == 0 {
		t.Fatal("rebuilt stripes not counted")
	}
}

// TestReplaceDiskValidation mirrors Reconstruct's precondition checks.
func TestReplaceDiskValidation(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 5, Level5)
	spare := NewMemDev(256, tSec)
	if _, err := a.ReplaceDisk(1, spare); err == nil {
		t.Fatal("ReplaceDisk accepted a healthy device")
	}
	if _, err := a.ReplaceDisk(99, spare); err == nil {
		t.Fatal("ReplaceDisk accepted an out-of-range device")
	}
	if err := a.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReplaceDisk(1, NewMemDev(1, tSec)); err == nil {
		t.Fatal("ReplaceDisk accepted an undersized spare")
	}
}

// TestReturnedDiskResyncsWhatItMissed: a device that fails and comes back
// with its contents (ReturnDisk) is live for every stripe outside its missed
// set — the stripes written while it was down — which reads route around
// until Resync rewrites them, clearing the set.  A second device then fails,
// and the bytes still read back through the resynced one.
func TestReturnedDiskResyncsWhatItMissed(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 4, Level5)
	stripe := a.StripeUnitSectors() * a.DataDisks()
	old, fresh := patterned(4*stripe*tSec, 3), patterned(2*stripe*tSec, 8)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, old); err != nil {
			t.Fatal(err)
		}
		if err := a.FailDisk(1); err != nil {
			t.Fatal(err)
		}
		// Stripes 1 and 2 miss device 1.
		if err := a.Write(p, int64(stripe), fresh); err != nil {
			t.Fatal(err)
		}
		want := append(append(old[:stripe*tSec:stripe*tSec], fresh...), old[3*stripe*tSec:]...)
		a.ReturnDisk(1)
		if a.Failed(1) || a.Missed(1) != 2 {
			t.Fatalf("returned device: failed %v, %d stripes missed, want 2", a.Failed(1), a.Missed(1))
		}
		check := func(what string) {
			t.Helper()
			got, err := a.Read(p, 0, 4*stripe)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: read back wrong (err %v)", what, err)
			}
		}
		check("before the resync")
		if n, err := a.Resync(p, 1); err != nil || n != 2 || a.Missed(1) != 0 {
			t.Fatalf("resync: %d stripes, err %v, %d still missed", n, err, a.Missed(1))
		}
		if err := a.FailDisk(2); err != nil {
			t.Fatal(err)
		}
		check("with device 2 failed after the resync")
	})
}

// TestFailedRebuildKeepsTheMissedStripes: a rebuild onto a spare lands
// stripe 0, which device 1 missed while failed, and then fails at stripe 2.
// The spare never swaps in, so device 1 still lacks stripe 0: it stays in
// the device's missed set, a returned device 1 is not read there, and a
// resync repairs it.  A landing on the spare used to take it out of the set,
// and the read then served device 1's stale column with a nil error.
func TestFailedRebuildKeepsTheMissedStripes(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 4, Level5)
	stripe := a.StripeUnitSectors() * a.DataDisks()
	want := make([]byte, 3*stripe*tSec) // stripe 1 is never written
	runProc(e, func(p *sim.Proc) {
		for _, s := range []int{0, 2} {
			chunk := want[s*stripe*tSec : (s+1)*stripe*tSec]
			copy(chunk, patterned(len(chunk), byte(s)))
			if err := a.Write(p, int64(s*stripe), chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.FailDisk(1); err != nil {
			t.Fatal(err)
		}
		copy(want, patterned(stripe*tSec, 9))
		if err := a.Write(p, 0, want[:stripe*tSec]); err != nil {
			t.Fatal(err)
		}
		spare := faultDev{NewMemDev(256, tSec), a.unitLBA(2)}
		if n, err := a.Reconstruct(p, 1, spare); err == nil || n != 1 {
			t.Fatalf("rebuild onto a spare that fails at stripe 2: %d stripes, err %v; want 1 and an error", n, err)
		}
		if a.Missed(1) != 1 {
			t.Fatalf("after the failed rebuild device 1 has %d missed stripes, want 1", a.Missed(1))
		}
		a.ReturnDisk(1)
		if got, err := a.Read(p, 0, 3*stripe); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read after the return: wrong bytes (err %v)", err)
		}
		if n, err := a.Resync(p, 1); err != nil || n != 1 || a.Missed(1) != 0 {
			t.Fatalf("resync: %d stripes, err %v, %d still missed", n, err, a.Missed(1))
		}
		if err := a.FailDisk(2); err != nil {
			t.Fatal(err)
		}
		if got, err := a.Read(p, 0, 3*stripe); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read through the resynced device: wrong bytes (err %v)", err)
		}
	})
}

// TestMissedStripeFailsAlone: a stripe whose column one device missed, with
// a second device failed, has lost more columns than parity covers.  A
// partial write to it and a read of it fail, but the array is not lost:
// other stripes still take writes and degraded reads.  A write of
// the whole stripe makes the returned device's column current again and
// takes the stripe out of its missed set.
func TestMissedStripeFailsAlone(t *testing.T) {
	e := sim.New()
	a, _ := newArray(t, e, 4, Level5)
	stripe := a.StripeUnitSectors() * a.DataDisks()
	want := patterned(4*stripe*tSec, 3)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, want); err != nil {
			t.Fatal(err)
		}
		if err := a.FailDisk(1); err != nil {
			t.Fatal(err)
		}
		// Stripe 1 misses device 1.
		copy(want[stripe*tSec:], patterned(stripe*tSec, 5))
		if err := a.Write(p, int64(stripe), want[stripe*tSec:2*stripe*tSec]); err != nil {
			t.Fatal(err)
		}
		a.ReturnDisk(1)
		if err := a.FailDisk(2); err != nil {
			t.Fatal(err)
		}
		if err := a.Write(p, int64(stripe), make([]byte, tSec)); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("partial write to a stripe short two columns: err %v, want ErrArrayFailed", err)
		}
		if _, err := a.Read(p, int64(stripe), stripe); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("read of a stripe short two columns: err %v, want ErrArrayFailed", err)
		}
		if a.Lost() {
			t.Fatal("one stripe short two columns lost the whole array")
		}
		copy(want[3*stripe*tSec:], patterned(tSec, 7))
		if err := a.Write(p, int64(3*stripe), want[3*stripe*tSec:3*stripe*tSec+tSec]); err != nil {
			t.Fatalf("write to another stripe: %v", err)
		}
		if got, err := a.Read(p, 0, stripe); err != nil || !bytes.Equal(got, want[:stripe*tSec]) {
			t.Fatalf("degraded read of a third stripe: wrong bytes (err %v)", err)
		}
		copy(want[stripe*tSec:], patterned(stripe*tSec, 9))
		if err := a.Write(p, int64(stripe), want[stripe*tSec:2*stripe*tSec]); err != nil || a.Missed(1) != 0 {
			t.Fatalf("whole-stripe rewrite: err %v, %d stripes still missed", err, a.Missed(1))
		}
		if got, err := a.Read(p, 0, 4*stripe); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read back after the rewrite: wrong bytes (err %v)", err)
		}
	})
}

// TestMirrorMissedWriteFailsAlone: at Level 1, a read whose primary copy
// fails falls back to the mirror only when the mirror holds the stripe's
// current bytes.  A mirror that missed the stripe's last write is stale: the
// read fails with ErrArrayFailed rather than return old bytes, and the array
// is not lost, so other stripes still read.
func TestMirrorMissedWriteFailsAlone(t *testing.T) {
	e := sim.New()
	a, mems := newArray(t, e, 4, Level1)
	stripe := a.StripeUnitSectors() * a.DataDisks()
	dev := a.colDev(0, 0)
	want := patterned(2*stripe*tSec, 3)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, want); err != nil {
			t.Fatal(err)
		}
		if err := a.FailDisk(dev ^ 1); err != nil {
			t.Fatal(err)
		}
		// Stripe 0 misses the mirror.
		copy(want, patterned(stripe*tSec, 5))
		if err := a.Write(p, 0, want[:stripe*tSec]); err != nil {
			t.Fatal(err)
		}
		a.ReturnDisk(dev ^ 1)
		mems[dev].AddLatentError(a.unitLBA(0), 1)
		if got, err := a.Read(p, 0, 1); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("read served by a mirror that missed the write: err %v, stale bytes %v", err, !bytes.Equal(got, want[:tSec]))
		}
		if a.Lost() {
			t.Fatal("one stripe with a stale mirror lost the whole array")
		}
		if got, err := a.Read(p, int64(stripe), stripe); err != nil || !bytes.Equal(got, want[stripe*tSec:]) {
			t.Fatalf("read of another stripe: wrong bytes (err %v)", err)
		}
	})
}

// TestOneDeviceLevel0: a one-device array is plain Level 0, and no other
// level accepts one device.
func TestOneDeviceLevel0(t *testing.T) {
	e := sim.New()
	devs := []Dev{NewMemDev(64, tSec)}
	a, err := New(e, devs, Config{Level: Level0, StripeUnitSectors: tUnit}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := patterned(16*tSec, 2)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 3, data); err != nil {
			t.Fatal(err)
		}
		if got, err := a.Read(p, 3, 16); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back wrong (err %v)", err)
		}
	})
	for _, l := range []Level{Level1, Level3, Level5, Level6} {
		if _, err := New(e, devs, Config{Level: l, StripeUnitSectors: tUnit}, nil); err == nil {
			t.Errorf("%v accepted one device", l)
		}
	}
}

// TestThirdFailureUnderALandingRebuildIsNoLoss: on Level 6, devices 0 and 3
// fail and a rebuild of 3 starts; device 4 fails once the rebuild has read
// its survivors.  The rebuild lands and swaps in, which leaves devices 0 and
// 4 failed: Level 6 covers two, so the array is not lost and the stripe
// reads back.  A latch the third failure set used to outlive the rebuild and
// fail every read.
func TestThirdFailureUnderALandingRebuildIsNoLoss(t *testing.T) {
	e := sim.New()
	a, _ := newFaultArray(t, e, 6, Level6)
	want := patterned(a.DataDisks()*tUnit*tSec, 5)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, want); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 3} {
			if err := a.FailDisk(i); err != nil {
				t.Fatal(err)
			}
		}
		rb, err := a.ReplaceDisk(3, faultDev{NewMemDev(64, tSec), 1 << 62})
		if err != nil {
			t.Fatal(err)
		}
		p.Wait(1500 * time.Microsecond) // the survivors are read; the spare's write is in flight
		if err := a.FailDisk(4); err != nil {
			t.Fatal(err)
		}
		if n, err := rb.Wait(p); err != nil || n != 1 {
			t.Fatalf("rebuild: %d stripes, err %v; want 1 and nil", n, err)
		}
		if a.Failed(3) || !a.Failed(0) || !a.Failed(4) {
			t.Fatalf("failed 0, 3, 4 = %v, %v, %v; want true, false, true", a.Failed(0), a.Failed(3), a.Failed(4))
		}
		if a.Lost() {
			t.Fatal("two failed devices lost a Level 6 array")
		}
		if got, err := a.Read(p, 0, len(want)/tSec); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read after the swap-in: wrong bytes (err %v)", err)
		}
	})
}

// TestLevel1RebuildLosesItsMirror: a Level 1 rebuild copies the failed
// device's column from its mirror.  When the mirror dies under the copy, the
// stripe has lost both copies, and the rebuild fails with the typed
// ErrArrayFailed.
func TestLevel1RebuildLosesItsMirror(t *testing.T) {
	e := sim.New()
	a, devs := newFaultArray(t, e, 4, Level1)
	runProc(e, func(p *sim.Proc) {
		if err := a.Write(p, 0, patterned(int(a.Sectors())*tSec, 2)); err != nil {
			t.Fatal(err)
		}
		if err := a.FailDisk(0); err != nil {
			t.Fatal(err)
		}
		rb, err := a.ReplaceDisk(0, faultDev{NewMemDev(64, tSec), 1 << 62})
		if err != nil {
			t.Fatal(err)
		}
		p.Wait(500 * time.Microsecond) // the first reads of the mirror are in flight
		devs[1].Fail()
		if _, err := rb.Wait(p); !errors.Is(err, ErrArrayFailed) {
			t.Fatalf("rebuild whose mirror died: err %v, want ErrArrayFailed", err)
		}
		if !a.Failed(0) || !a.Failed(1) || !a.Lost() {
			t.Fatal("the rebuild swapped in, or the mirror's death did not lose the pair")
		}
	})
}

// TestWriteBeyondRedundancyIsNeverTorn: devices die under a write of stripe
// 2, more of them than the level covers.  The write fails with
// ErrArrayFailed, and the stripe joins each dead device's missed set.  Once
// the devices come back with what they held, a read of the stripe fails
// rather than mix old columns with new, and the other stripes read back.
func TestWriteBeyondRedundancyIsNeverTorn(t *testing.T) {
	for _, tc := range []struct {
		level Level
		width int
		die   []int
	}{
		{Level0, 4, []int{1}},
		{Level1, 4, []int{2, 3}},
		{Level5, 5, []int{1, 3}},
		{Level6, 6, []int{0, 2, 5}},
	} {
		t.Run(tc.level.String(), func(t *testing.T) {
			e := sim.New()
			a, devs := newFaultArray(t, e, tc.width, tc.level)
			per := a.DataDisks() * tUnit
			want := patterned(3*per*tSec, 4)
			runProc(e, func(p *sim.Proc) {
				if err := a.Write(p, 0, want); err != nil {
					t.Fatal(err)
				}
				for _, i := range tc.die {
					a.devs[i] = faultDev{devs[i].MemDev, a.unitLBA(2)} // dies at stripe 2
				}
				if err := a.Write(p, int64(2*per), patterned(per*tSec, 9)); !errors.Is(err, ErrArrayFailed) {
					t.Fatalf("write that outlived its redundancy: err %v, want ErrArrayFailed", err)
				}
				for _, i := range tc.die {
					if !a.Failed(i) || !a.missed[i].Has(2) {
						t.Fatalf("device %d: failed %v, missed stripe 2 %v; want both", i, a.Failed(i), a.missed[i].Has(2))
					}
					devs[i].failed = false // the disk comes back with what it held
					a.ReturnDisk(i)
				}
				if _, err := a.Read(p, int64(2*per), per); !errors.Is(err, ErrArrayFailed) {
					t.Fatalf("read of the torn stripe: err %v, want ErrArrayFailed", err)
				}
				if got, err := a.Read(p, 0, 2*per); err != nil || !bytes.Equal(got, want[:2*per*tSec]) {
					t.Fatalf("read of the other stripes: wrong bytes (err %v)", err)
				}
			})
		})
	}
}
