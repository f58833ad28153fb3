package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostNow is the benchmark's single read of the wall clock.  Host time is
// what this benchmark exists to measure — the cost of running the
// simulator — and it never feeds back into a simulation, so seeded runs
// stay reproducible however long the host takes.
func hostNow() time.Time {
	//lint:allow simtime host-time measurement of the simulator itself; never feeds a simulation
	return time.Now()
}

// hostSince returns host nanoseconds elapsed since t.
func hostSince(t time.Time) int64 { return int64(hostNow().Sub(t)) }

// hostUsage is a snapshot of the cumulative costs the Go runtime and the
// kernel charge this process; two snapshots bracket a timed phase.
type hostUsage struct {
	userS, sysS  float64 // getrusage
	gcCPUS       float64 // runtime/metrics
	gcCycles     float64
	allocBytes   float64
	allocObjects float64
	peakRSSMB    float64 // ru_maxrss, the process high-water mark
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// readUsage samples the counters.  runtime/metrics is used instead of
// runtime.ReadMemStats because it does not stop the world, so sampling
// between reps costs the simulator nothing.
func readUsage() hostUsage {
	var u hostUsage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.userS = float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6
		u.sysS = float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
		u.peakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
	}
	metrics.Read(usageSamples)
	for i, dst := range []*float64{&u.gcCPUS, &u.gcCycles, &u.allocBytes, &u.allocObjects} {
		switch v := usageSamples[i].Value; v.Kind() {
		case metrics.KindUint64:
			*dst = float64(v.Uint64())
		case metrics.KindFloat64:
			*dst = v.Float64()
		}
	}
	return u
}

// sub returns the usage accumulated between since and u (peak RSS is a
// high-water mark, not a delta).
func (u hostUsage) sub(since hostUsage) hostUsage {
	return hostUsage{
		userS:        u.userS - since.userS,
		sysS:         u.sysS - since.sysS,
		gcCPUS:       u.gcCPUS - since.gcCPUS,
		gcCycles:     u.gcCycles - since.gcCycles,
		allocBytes:   u.allocBytes - since.allocBytes,
		allocObjects: u.allocObjects - since.allocObjects,
		peakRSSMB:    u.peakRSSMB,
	}
}

// Calibration.  This sandbox's CPU changes speed by a fifth for minutes at a
// time: a fixed integer loop reads 437 ms, then 532 ms for the next few
// minutes, with nothing else running, and a whole run's host seconds move
// with it.  A 10 % bound on raw wall seconds cannot survive that, so a short
// fixed loop of dependent integer multiply-adds runs on either side of
// every set-up and timed phase, and the two host-clock end-to-end metrics are
// reported at reference speed: wall seconds × refStepNS ÷ the measured ns per
// step around the phase.  The raw seconds are kept as host.wall_s.  The loop
// is timed in chunks and the fastest chunk counts, so a burst of interference
// during the calibration itself does not distort it.
const (
	calibChunks = 8
	calibSteps  = 2 << 20 // dependent multiply-adds per chunk, about 3 ms
	refStepNS   = 1.4     // one step on the reference core (four cycles at 2.86 GHz): this sandbox's usual speed
	calibCopy   = 32 << 20
)

var (
	calibSrc, calibDst = make([]byte, calibCopy), make([]byte, calibCopy)
	calibSink          uint64
)

// calib is one reading of the machine's speed.
type calib struct {
	stepNS    float64 // host ns per multiply-add step, fastest chunk
	copyNSPKB float64 // host ns per KB of one 32 MB copy: DRAM speed, reported only
}

// calibrate reads the machine's speed.
func calibrate() calib {
	best := 0.0
	x := calibSink | 1
	for c := 0; c < calibChunks; c++ {
		t0 := hostNow()
		for i := 0; i < calibSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		if ns := float64(hostSince(t0)); c == 0 || ns < best {
			best = ns
		}
	}
	t0 := hostNow()
	calibSrc[0] = byte(x)
	copy(calibDst, calibSrc)
	copyNS := float64(hostSince(t0))
	calibSink = x + uint64(calibDst[0])
	return calib{stepNS: best / calibSteps, copyNSPKB: copyNS / (calibCopy / 1024)}
}

// atReference converts wall seconds measured between two calibrations to
// seconds on the reference core.
func atReference(wallS float64, before, after calib) float64 {
	return wallS * refStepNS / ((before.stepNS + after.stepNS) / 2)
}

// quiesce collects the previous rep's machine so its garbage is not charged
// to the next timed phase.
func quiesce() { runtime.GC() }
