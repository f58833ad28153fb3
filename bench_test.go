package raidii

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (plus the baselines and ablations DESIGN.md calls
// out).  Each benchmark runs the corresponding simulated experiment and
// reports the measured simulated rates via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation.  The custom metrics are simulated
// MB/s (decimal) or I/Os per second — wall-clock ns/op only reflects how
// fast the simulator itself runs.

import (
	"math/rand"
	"testing"

	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/workload"
)

// BenchmarkFig5HardwareRandom regenerates Figure 5 at the 1 MB point.
func BenchmarkFig5HardwareRandom(b *testing.B) {
	var read, write float64
	for i := 0; i < b.N; i++ {
		fig, err := Fig5([]int{1024})
		if err != nil {
			b.Fatal(err)
		}
		read = fig.Series[0].At(1024)
		write = fig.Series[1].At(1024)
	}
	b.ReportMetric(read, "readMB/s")
	b.ReportMetric(write, "writeMB/s")
}

// BenchmarkTable1PeakSequential regenerates Table 1.
func BenchmarkTable1PeakSequential(b *testing.B) {
	var r Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = Table1(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ReadMBps, "readMB/s")
	b.ReportMetric(r.WriteMBps, "writeMB/s")
}

// BenchmarkTable2SmallIO regenerates Table 2.
func BenchmarkTable2SmallIO(b *testing.B) {
	var r Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = Table2(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RAIDIFifteen, "raid1-IOPS")
	b.ReportMetric(r.RAIDIIFifteen, "raid2-IOPS")
}

// BenchmarkFig6HIPPILoopback regenerates Figure 6 at the 1 MB point.
func BenchmarkFig6HIPPILoopback(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		fig, err := Fig6([]int{1024})
		if err != nil {
			b.Fatal(err)
		}
		rate = fig.Series[0].At(1024)
	}
	b.ReportMetric(rate, "MB/s")
}

// BenchmarkFig7StringScaling regenerates Figure 7's saturated point.
func BenchmarkFig7StringScaling(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		fig, err := Fig7([]int{3})
		if err != nil {
			b.Fatal(err)
		}
		rate = fig.Series[0].At(3)
	}
	b.ReportMetric(rate, "MB/s")
}

// BenchmarkFig8LFS regenerates Figure 8 at a large and a small request
// size (reads and writes).
func BenchmarkFig8LFS(b *testing.B) {
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		if fig, err = Fig8([]int{512, 4096}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.Series[0].At(4096), "readMB/s")
	b.ReportMetric(fig.Series[1].At(512), "writeMB/s")
}

// BenchmarkRAIDIBaseline regenerates the §1 RAID-I ceiling.
func BenchmarkRAIDIBaseline(b *testing.B) {
	var r RAIDIResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = RAIDIBaseline(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.UserReadMBps, "userMB/s")
	b.ReportMetric(r.SingleDiskMBps, "diskMB/s")
}

// BenchmarkClientNetwork regenerates the §3.4 SPARCstation measurements.
func BenchmarkClientNetwork(b *testing.B) {
	var r ClientResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = ClientNetwork(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ReadMBps, "readMB/s")
	b.ReportMetric(r.WriteMBps, "writeMB/s")
}

// BenchmarkRecovery regenerates the §3.1 crash-recovery comparison on a
// reduced (128 MB) volume.
func BenchmarkRecovery(b *testing.B) {
	var r RecoveryResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = Recovery(128); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.LFSCheck.Seconds(), "lfs-s")
	b.ReportMetric(r.UFSFsck.Seconds(), "fsck-s")
}

// BenchmarkXBUSScaling regenerates the §2.1.2 board-scaling claim.
func BenchmarkXBUSScaling(b *testing.B) {
	var fig *Figure
	for i := 0; i < b.N; i++ {
		var err error
		if fig, err = Scaling([]int{1, 2}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.Series[0].At(1), "1boardMB/s")
	b.ReportMetric(fig.Series[0].At(2), "2boardMB/s")
}

// BenchmarkAblationParityEngine compares hardware and host parity.
func BenchmarkAblationParityEngine(b *testing.B) {
	var r AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = AblationParityEngine(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.With, "hwMB/s")
	b.ReportMetric(r.Without, "hostMB/s")
}

// BenchmarkAblationLFSSmallWrites compares LFS against update-in-place on
// 4 KB random writes.
func BenchmarkAblationLFSSmallWrites(b *testing.B) {
	var r AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = AblationLFSSmallWrites(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.With, "lfs-IOPS")
	b.ReportMetric(r.Without, "ufs-IOPS")
}

// BenchmarkAblationTwoPaths compares the two data paths on a large read.
func BenchmarkAblationTwoPaths(b *testing.B) {
	var r AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = AblationTwoPaths(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.With, "hippiMB/s")
	b.ReportMetric(r.Without, "etherMB/s")
}

// BenchmarkSimulatorEventRate measures the raw discrete-event engine: how
// many simulated 1 MB hardware reads per wall-clock second the simulator
// sustains (a simulator-quality metric, not a paper result).
func BenchmarkSimulatorEventRate(b *testing.B) {
	sys, err := server.New(server.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	board := sys.Boards[0]
	space := board.Array.Sectors()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := workload.RandomAligned(rng, space-2048, 2048)
		sys.Eng.Spawn("op", func(p *sim.Proc) {
			if err := board.HardwareRead(p, off, 1<<20); err != nil {
				b.Error(err)
			}
		})
		sys.Eng.Run()
	}
	b.SetBytes(1 << 20)
}

// BenchmarkRebuild measures degraded-mode reads and reconstruction.
func BenchmarkRebuild(b *testing.B) {
	var r RebuildResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = Rebuild(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.NormalReadMBps, "healthyMB/s")
	b.ReportMetric(r.DegradedReadMBps, "degradedMB/s")
	b.ReportMetric(r.RebuildDuration.Seconds(), "rebuild-s")
}

// BenchmarkAblationDiskScheduler compares actuator scheduling policies.
func BenchmarkAblationDiskScheduler(b *testing.B) {
	var r AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = AblationDiskScheduler(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.With, "sstf-IOPS")
	b.ReportMetric(r.Without, "fifo-IOPS")
}

// BenchmarkFileServerTrace runs the Zipf-skewed integration workload.
func BenchmarkFileServerTrace(b *testing.B) {
	var r FileServerResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = FileServerTrace(600); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.OpsPerSec, "ops/s")
	b.ReportMetric(r.MeanReadMs, "read-ms")
	b.ReportMetric(r.MeanWriteMs, "write-ms")
}
