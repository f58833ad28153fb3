// Command raidbench regenerates every table and figure from the RAID-II
// paper's evaluation on the simulated hardware, printing the measured
// series next to the values the paper reports.
//
// Usage:
//
//	raidbench [-trace out.json] [-util] [-json out.json] [-metrics out.prom]
//	          [-metrics-json out.json] [-list] [experiment ...]
//
// With no arguments every experiment runs; an unknown name runs nothing,
// lists the known experiments and exits 2.  Experiments: fig5, table1,
// table2, fig6, fig7, fig8, raid1, client, recovery, scaling, fleet,
// rebuild, faults, netfaults, fileserver, cache, smallwrite, doublefault,
// ablate.
//
// -list prints every registered experiment with its one-line description
// and exits without running anything.
//
// -util prints a per-component utilization/queue-wait table after each
// experiment, naming the bottleneck that shapes the measured curve (and
// the block-cache hit rate when the run had one).
// -trace writes every simulated run to one Chrome trace_event JSON file,
// loadable in https://ui.perfetto.dev; per-event recording is verbose, so
// prefer tracing a single experiment at a time.
// -json writes machine-readable results (schema-versioned; experiment
// name, configuration, and every measured data point) for the CI
// regression gate, which diffs them byte-for-byte against
// BENCH_baseline.json (host-time fields stripped first).  Each experiment
// records its wall-clock and user and system CPU seconds, and the report
// the GOMAXPROCS they were measured at.
// -metrics attaches per-request telemetry to every run and writes one
// Prometheus text exposition file, each series labeled run="<label>";
// -metrics-json writes the same registries as versioned JSON, gauge
// time series included.
//
// All outputs use simulated timestamps and deterministic values only and
// are byte-identical across runs of the same binary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"raidii"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/trace"
)

type experiment struct {
	name string
	desc string
	cfg  string // machine configuration, recorded in -json output
	run  func() error
}

// hostCost is what running something cost the host, in seconds: wall
// clock, and the process's user and system CPU time.
type hostCost struct{ wall, user, sys float64 }

// cpuSeconds returns the process's user and system CPU time so far.  Where
// getrusage fails, which it does not for the calling process on Linux, the
// CPU fields read zero rather than stopping a run they do not affect.
func cpuSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6, float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
}

// hostClock is the single place raidbench touches the wall clock: it
// returns a closure measuring the host cost since the call.  The value is
// reporting only — it never feeds back into a simulation, so seeded runs
// stay reproducible no matter how long the host takes.
func hostClock() func() hostCost {
	//lint:allow simtime host-time progress report; never feeds a simulation
	start := time.Now()
	user, sys := cpuSeconds()
	return func() hostCost {
		u, s := cpuSeconds()
		//lint:allow simtime host-time progress report; never feeds a simulation
		return hostCost{time.Since(start).Seconds(), u - user, s - sys}
	}
}

const (
	cfg24  = "1 board, 24 IBM 0661 disks, RAID-5, 64 KB stripe"
	cfg16  = "1 board, 16 IBM 0661 disks, RAID-5, 64 KB stripe, 960 KB segments"
	cfgR1  = "Sun 4/280 host, 4 Wren IV disks (RAID-I prototype)"
	cfgMix = "per-run geometry; see experiment description"
)

func main() {
	traceOut := flag.String("trace", "", "write all runs as Chrome trace_event JSON to this file")
	util := flag.Bool("util", false, "print per-component utilization tables after each experiment")
	jsonOut := flag.String("json", "", "write machine-readable results to this file")
	metricsOut := flag.String("metrics", "", "write per-run telemetry as Prometheus text to this file")
	metricsJSONOut := flag.String("metrics-json", "", "write per-run telemetry as versioned JSON to this file")
	list := flag.Bool("list", false, "list registered experiments with their descriptions and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU pprof profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap pprof profile taken after the last experiment to this file")
	flag.Parse()

	// Host-side profiling, mirroring raidfsd's -pprof: the profiles measure
	// where the host CPU and heap go, never the simulation, so seeded runs
	// stay reproducible with profiling on.  CI's perf job uploads both so an
	// engine regression can be triaged without a local reproduction.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			werr := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", werr)
			}
		}()
	}

	var recs []*trace.Recorder
	var probes []func(string, *sim.Engine)
	if *traceOut != "" || *util {
		// Aggregate-only recording is cheap; per-event spans and counters
		// are kept only when a trace file was requested.
		events := *traceOut != ""
		probes = append(probes, func(label string, e *sim.Engine) {
			recs = append(recs, trace.Attach(e, trace.Config{Label: label, Pid: len(recs) + 1, Events: events}))
		})
	}
	if *metricsOut != "" || *metricsJSONOut != "" {
		probes = append(probes, metricsProbe)
	}
	// Every engine an experiment creates is collected so the per-experiment
	// event totals (deterministic) and events/second (host throughput) can
	// be reported; the slice is truncated after each experiment so finished
	// simulations stay collectable.
	var engines []*sim.Engine
	probes = append(probes, func(label string, e *sim.Engine) {
		engines = append(engines, e)
	})
	{
		probes := probes
		raidii.SetProbe(func(label string, e *sim.Engine) {
			for _, fn := range probes {
				fn(label, e)
			}
		})
	}
	if *jsonOut != "" {
		collector = &benchReport{Schema: benchSchema, Experiments: []benchExperiment{}}
	}

	experiments := []experiment{
		{"fig5", "hardware system-level random I/O vs request size", cfg24, runFig5},
		{"table1", "peak sequential read/write", cfg24 + " + fifth Cougar", runTable1},
		{"table2", "4 KB random read I/O rates", "15 disks, no striping", runTable2},
		{"fig6", "HIPPI loopback throughput", "HIPPI source/destination boards only", runFig6},
		{"fig7", "disks per SCSI string", "one Cougar string, 1-5 disks", runFig7},
		{"fig8", "LFS read/write bandwidth", cfg16, runFig8},
		{"raid1", "RAID-I baseline ceiling", cfgR1, runRAIDI},
		{"client", "single SPARCstation network client", cfg24 + " + SPARCstation 10/51", runClient},
		{"recovery", "LFS recovery vs UNIX fsck", cfg16, runRecovery},
		{"scaling", "XBUS board scaling", "1-4 boards, 24 disks each", runScaling},
		{"fleet", "multi-server fleet: read scaling and whole-host kill", "1-8 Fig-8 hosts, one Ultranet ring", runFleet},
		{"rebuild", "degraded mode and disk reconstruction", cfg24, runRebuild},
		{"faults", "scripted fault plans: timeline and rebuild under load", cfg24, runFaults},
		{"netfaults", "Ultranet link flap under client reads", cfg16 + " + fast client", runNetFaults},
		{"fileserver", "Zipf-skewed file-server trace (integration)", cfg16 + ", 8 MB cache (16 KB lines)", runFileServer},
		{"cache", "block cache working-set sweep", cfg24 + ", 8 MB cache (64 KB lines)", runCache},
		{"smallwrite", "durable 4 KB write latency: NVRAM segment images vs synchronous", cfg16 + ", 1 MB NVRAM", runSmallWrite},
		{"doublefault", "RAID-6 double disk failure: degraded serving and double rebuild", cfg16 + " at RAID-6, small disks", runDoubleFault},
		{"ablate", "design-choice ablations", cfgMix, runAblate},
	}

	if *list {
		for _, ex := range experiments {
			fmt.Printf("%-12s %s\n", ex.name, ex.desc)
		}
		return
	}

	selected, code := selectExperiments(experiments, flag.Args(), os.Stderr)
	if code != 0 {
		os.Exit(code)
	}
	for _, ex := range selected {
		fmt.Printf("==> %s: %s\n", ex.name, ex.desc)
		elapsed := hostClock()
		mark := len(recs)
		jsonExperiment(ex.name, ex.cfg)
		if err := ex.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", ex.name, err)
			os.Exit(1)
		}
		if *util {
			for _, rec := range recs[mark:] {
				fmt.Print(rec.Table(12))
			}
		}
		var events uint64
		for i, e := range engines {
			events += e.EventsExecuted()
			engines[i] = nil
		}
		engines = engines[:0]
		cost := elapsed()
		jsonElapsed(cost, events)
		fmt.Printf("    (%d events, %.1fs host time, %.1fs user + %.1fs sys CPU)\n\n", events, cost.wall, cost.user, cost.sys)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		werr := trace.WriteChrome(f, recs...)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", werr)
			os.Exit(1)
		}
		fmt.Printf("wrote %d traced runs to %s (load in https://ui.perfetto.dev)\n", len(recs), *traceOut)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d experiment results to %s (schema %d)\n",
			len(collector.Experiments), *jsonOut, benchSchema)
	}
	if *metricsOut != "" {
		if err := writeMetricsProm(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote telemetry for %d runs to %s (Prometheus text)\n", len(metricsRuns), *metricsOut)
	}
	if *metricsJSONOut != "" {
		if err := writeMetricsJSON(*metricsJSONOut); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote telemetry for %d runs to %s (JSON schema %d)\n",
			len(metricsRuns), *metricsJSONOut, telemetry.JSONSchema)
	}
}

func runFig5() error {
	fig, err := raidii.Fig5([]int{64, 128, 256, 512, 768, 1024, 1280, 1600})
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	fmt.Println("paper: both curves rise to ~20 MB/s at large requests; writes below reads")
	jsonFigure(fig, "MB/s")
	return nil
}

func runTable1() error {
	r, err := raidii.Table1()
	if err != nil {
		return err
	}
	fmt.Printf("sequential read : %5.1f MB/s   (paper: 31)\n", r.ReadMBps)
	fmt.Printf("sequential write: %5.1f MB/s   (paper: 23)\n", r.WriteMBps)
	jsonPoint("sequential-read", 0, "MB/s", r.ReadMBps)
	jsonPoint("sequential-write", 0, "MB/s", r.WriteMBps)
	return nil
}

func runTable2() error {
	r, err := raidii.Table2()
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %12s %12s %10s\n", "system", "1 disk IO/s", "15 disk IO/s", "delivered")
	fmt.Printf("%-10s %12.1f %12.0f %9.0f%%   (paper: ~27.5 / ~275 / 67%%)\n",
		"RAID-I", r.RAIDIOneDisk, r.RAIDIFifteen, r.RAIDIPercent)
	fmt.Printf("%-10s %12.1f %12.0f %9.0f%%   (paper: ~36 / ~422 / 78%%)\n",
		"RAID-II", r.RAIDIIOneDisk, r.RAIDIIFifteen, r.RAIDIIPercent)
	jsonPoint("raid1", 1, "IO/s", r.RAIDIOneDisk)
	jsonPoint("raid1", 15, "IO/s", r.RAIDIFifteen)
	jsonPoint("raid2", 1, "IO/s", r.RAIDIIOneDisk)
	jsonPoint("raid2", 15, "IO/s", r.RAIDIIFifteen)
	return nil
}

func runFig6() error {
	fig, err := raidii.Fig6([]int{16, 32, 64, 128, 256, 512, 1024, 1600})
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	fmt.Println("paper: rises to 38.5 MB/s in each direction; 1.1 ms setup dominates small packets")
	jsonFigure(fig, "MB/s")
	return nil
}

func runFig7() error {
	fig, err := raidii.Fig7([]int{1, 2, 3, 4, 5})
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	fmt.Println("paper: saturates near 3 MB/s, below linear scaling from one disk")
	jsonFigure(fig, "MB/s")
	return nil
}

func runFig8() error {
	fig, err := raidii.Fig8([]int{64, 256, 512, 1024, 4096, 10240, 16384})
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	fmt.Println("paper: reads climb to ~20-21 MB/s past 10 MB; writes level at ~15 MB/s above 512 KB")
	jsonFigure(fig, "MB/s")
	return nil
}

func runRAIDI() error {
	r, err := raidii.RAIDIBaseline()
	if err != nil {
		return err
	}
	fmt.Printf("user-level read : %4.2f MB/s   (paper: 2.3)\n", r.UserReadMBps)
	fmt.Printf("single Wren IV  : %4.2f MB/s   (paper: 1.3)\n", r.SingleDiskMBps)
	jsonPoint("user-read", 0, "MB/s", r.UserReadMBps)
	jsonPoint("single-disk", 0, "MB/s", r.SingleDiskMBps)
	return nil
}

func runClient() error {
	r, err := raidii.ClientNetwork()
	if err != nil {
		return err
	}
	fmt.Printf("SPARCstation read : %4.2f MB/s   (paper: 3.2)\n", r.ReadMBps)
	fmt.Printf("SPARCstation write: %4.2f MB/s   (paper: 3.1)\n", r.WriteMBps)
	fmt.Printf("server host CPU   : %4.1f%% busy  (paper: close to zero)\n", r.HostCPUUtil*100)
	jsonPoint("client-read", 0, "MB/s", r.ReadMBps)
	jsonPoint("client-write", 0, "MB/s", r.WriteMBps)
	jsonPoint("host-cpu", 0, "fraction", r.HostCPUUtil)
	return nil
}

func runRecovery() error {
	r, err := raidii.Recovery(256)
	if err != nil {
		return err
	}
	fmt.Printf("volume: %d MB of live data\n", r.VolumeMB)
	fmt.Printf("LFS mount+check after crash: %8.2fs  consistent=%v   (paper: \"a few seconds\")\n",
		r.LFSCheck.Seconds(), r.LFSConsistent)
	fmt.Printf("traditional full fsck      : %8.2fs  (paper: ~20 minutes for 1 GB)\n",
		r.UFSFsck.Seconds())
	fmt.Printf("ratio: %.0fx\n", r.UFSFsck.Seconds()/r.LFSCheck.Seconds())
	jsonPoint("lfs-check", float64(r.VolumeMB), "s", r.LFSCheck.Seconds())
	jsonPoint("ufs-fsck", float64(r.VolumeMB), "s", r.UFSFsck.Seconds())
	return nil
}

func runScaling() error {
	fig, err := raidii.Scaling([]int{1, 2, 3, 4})
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	fmt.Println("paper (§2.1.2): bandwidth scales with boards until the host CPU saturates")
	jsonFigure(fig, "MB/s")
	return nil
}

func runFleet() error {
	fig, err := raidii.FleetScaling([]int{1, 2, 3, 4, 6, 8})
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	fmt.Println("paper (§2.1.2, §5.2): striping across whole servers multiplies client bandwidth until the ring saturates")
	jsonFigure(fig, "MB/s")
	r, err := raidii.FleetKillTimeline()
	if err != nil {
		return err
	}
	fmt.Print(r.Fig.Render())
	fmt.Printf("server %d down %v-%v: %.1f MB/s before -> %.1f MB/s during -> %.1f MB/s recovered\n",
		r.Server, r.DownAt, r.UpAt, r.PreFaultMBps, r.DuringMBps, r.RecoveredMBps)
	fmt.Printf("repair: %d stale fragments from the degraded write, %d rebuilt from cross-server parity, data intact=%v\n",
		r.StaleFragments, r.RebuiltFragments, r.DataIntact)
	jsonPoint("fleet-pre-fault", 0, "MB/s", r.PreFaultMBps)
	jsonPoint("fleet-during-fault", 0, "MB/s", r.DuringMBps)
	jsonPoint("fleet-recovered", 0, "MB/s", r.RecoveredMBps)
	jsonPoint("fleet-stale", 0, "count", float64(r.StaleFragments))
	jsonPoint("fleet-rebuilt", 0, "count", float64(r.RebuiltFragments))
	return nil
}

func runRebuild() error {
	r, err := raidii.Rebuild()
	if err != nil {
		return err
	}
	fmt.Printf("healthy 1 MB random reads : %5.1f MB/s\n", r.NormalReadMBps)
	fmt.Printf("degraded (1 disk failed)  : %5.1f MB/s\n", r.DegradedReadMBps)
	fmt.Printf("rebuild onto spare        : %v (%.1f MB/s)\n", r.RebuildDuration, r.RebuildMBps)
	jsonPoint("healthy-read", 0, "MB/s", r.NormalReadMBps)
	jsonPoint("degraded-read", 0, "MB/s", r.DegradedReadMBps)
	jsonPoint("rebuild", 0, "MB/s", r.RebuildMBps)
	return nil
}

func runFaults() error {
	tl, err := raidii.FaultTimeline()
	if err != nil {
		return err
	}
	fmt.Print(tl.Fig.Render())
	fmt.Printf("disk failed at %v: %.1f MB/s healthy -> %.1f MB/s degraded "+
		"(%d device errors, %d disk failures)\n",
		tl.FailAt, tl.HealthyMBps, tl.DegradedMBps, tl.DeviceErrors, tl.DiskFailures)
	jsonPoint("timeline-healthy", 0, "MB/s", tl.HealthyMBps)
	jsonPoint("timeline-degraded", 0, "MB/s", tl.DegradedMBps)
	r, err := raidii.RebuildUnderLoad()
	if err != nil {
		return err
	}
	fmt.Printf("1 MB random reads: healthy %5.1f MB/s  degraded %5.1f MB/s  "+
		"rebuilding %5.1f MB/s  post-rebuild %5.1f MB/s\n",
		r.HealthyMBps, r.DegradedMBps, r.RebuildingMBps, r.PostRebuildMBps)
	fmt.Printf("hot rebuild: %d stripes in %v (%.1f MB/s) under foreground load\n",
		r.RebuildStripes, r.RebuildDuration, r.RebuildMBps)
	jsonPoint("phase-healthy", 0, "MB/s", r.HealthyMBps)
	jsonPoint("phase-degraded", 0, "MB/s", r.DegradedMBps)
	jsonPoint("phase-rebuilding", 0, "MB/s", r.RebuildingMBps)
	jsonPoint("phase-post-rebuild", 0, "MB/s", r.PostRebuildMBps)
	return nil
}

func runNetFaults() error {
	r, err := raidii.NetworkFaultTimeline()
	if err != nil {
		return err
	}
	fmt.Print(r.Fig.Render())
	fmt.Printf("ring down %v-%v: %.1f MB/s before -> %.1f MB/s during -> %.1f MB/s recovered "+
		"(%d client retries)\n",
		r.DownAt, r.UpAt, r.PreFaultMBps, r.DuringMBps, r.RecoveredMBps, r.Retries)
	printLatency("net-read", r.ReadLatency)
	jsonPoint("net-pre-fault", 0, "MB/s", r.PreFaultMBps)
	jsonPoint("net-during-fault", 0, "MB/s", r.DuringMBps)
	jsonPoint("net-recovered", 0, "MB/s", r.RecoveredMBps)
	jsonPoint("net-retries", 0, "count", float64(r.Retries))
	return nil
}

func runFileServer() error {
	r, err := raidii.FileServerTrace(1500)
	if err != nil {
		return err
	}
	fmt.Printf("%d ops in %.1fs simulated: %.0f ops/s\n", r.Ops, r.Elapsed.Seconds(), r.OpsPerSec)
	fmt.Printf("mean read %.1f ms, mean write %.1f ms; %d segments cleaned; consistent=%v\n",
		r.MeanReadMs, r.MeanWriteMs, r.SegsCleaned, r.FSConsistent)
	fmt.Printf("hot re-read: %.1f MB/s; cache %d hits / %d misses over the whole run\n",
		r.ReReadMBps, r.CacheHits, r.CacheMisses)
	printLatency("fs-read", r.ReadLatency)
	printLatency("fs-write", r.WriteLatency)
	jsonPoint("ops-per-sec", 0, "ops/s", r.OpsPerSec)
	jsonPoint("mean-read", 0, "ms", r.MeanReadMs)
	jsonPoint("mean-write", 0, "ms", r.MeanWriteMs)
	jsonPoint("reread", 0, "MB/s", r.ReReadMBps)
	jsonPoint("cache-hits", 0, "count", float64(r.CacheHits))
	jsonPoint("cache-misses", 0, "count", float64(r.CacheMisses))
	return nil
}

func runCache() error {
	r, err := raidii.CacheWorkingSet(8, []int{2, 4, 6, 8, 12, 16, 24})
	if err != nil {
		return err
	}
	fmt.Print(r.Fig.Render())
	for _, pt := range r.Points {
		fmt.Printf("  %2d MB working set: cached %5.1f MB/s  uncached %5.1f MB/s  hit rate %5.1f%%\n",
			pt.WorkingSetMB, pt.CachedMBps, pt.UncachedMBps, pt.HitRate*100)
		fmt.Printf("     cached   p50 %6.2f ms  p99 %6.2f ms  p999 %6.2f ms\n",
			ms(pt.CachedLat.P50), ms(pt.CachedLat.P99), ms(pt.CachedLat.P999))
		fmt.Printf("     uncached p50 %6.2f ms  p99 %6.2f ms  p999 %6.2f ms\n",
			ms(pt.UncachedLat.P50), ms(pt.UncachedLat.P99), ms(pt.UncachedLat.P999))
	}
	fmt.Printf("knee at cache capacity (%d MB): hit-dominated phase rides the crossbar/HIPPI, "+
		"miss-dominated falls to the disk-bound curve\n", r.CacheMB)
	jsonFigure(r.Fig, "MB/s")
	for _, pt := range r.Points {
		jsonPoint("hit-rate", float64(pt.WorkingSetMB), "fraction", pt.HitRate)
		jsonPoint("cached-p99", float64(pt.WorkingSetMB), "ms", ms(pt.CachedLat.P99))
		jsonPoint("uncached-p99", float64(pt.WorkingSetMB), "ms", ms(pt.UncachedLat.P99))
	}
	return nil
}

func runAblate() error {
	a, err := raidii.AblationParityEngine()
	if err != nil {
		return err
	}
	printAblation(a)
	b, err := raidii.AblationLFSSmallWrites()
	if err != nil {
		return err
	}
	printAblation(b)
	c, err := raidii.AblationTwoPaths()
	if err != nil {
		return err
	}
	printAblation(c)
	d, err := raidii.AblationDiskScheduler()
	if err != nil {
		return err
	}
	printAblation(d)
	fig, err := raidii.AblationStripeUnit([]int{16, 32, 64, 128, 256})
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	jsonFigure(fig, "MB/s")
	return nil
}

func runSmallWrite() error {
	r, err := raidii.SmallWriteLatency()
	if err != nil {
		return err
	}
	fmt.Printf("%d durable %d KB writes per machine (read-back verified):\n", r.Ops, r.RecSize>>10)
	fmt.Println("NVRAM ack (committed into the battery-backed open segment):")
	printLatency("staged", r.Staged)
	fmt.Println("synchronous (segment seal per write):")
	printLatency("unstaged", r.Unstaged)
	fmt.Printf("region: %d writes waited for a segment image\n", r.Waited)
	return nil
}

func runDoubleFault() error {
	r, err := raidii.DoubleFaultTimeline()
	if err != nil {
		return err
	}
	fmt.Print(r.Fig.Render())
	fmt.Printf("disks failed at %v and %v: %.1f MB/s healthy -> %.1f MB/s double-degraded "+
		"(%d degraded reads, data intact=%v)\n",
		r.FirstFailAt, r.SecondFailAt, r.HealthyMBps, r.DoubleDegradedMBps, r.DegradedReads, r.DataIntact)
	fmt.Printf("both rebuilds: %v; post-rebuild %.1f MB/s (%.0f%% of healthy)\n",
		r.RebuildDuration, r.PostRebuildMBps, r.RecoveredFrac*100)
	jsonPoint("dbl-healthy", 0, "MB/s", r.HealthyMBps)
	jsonPoint("dbl-degraded", 0, "MB/s", r.DoubleDegradedMBps)
	jsonPoint("dbl-post-rebuild", 0, "MB/s", r.PostRebuildMBps)
	jsonPoint("dbl-recovered", 0, "fraction", r.RecoveredFrac)
	jsonPoint("dbl-degraded-reads", 0, "count", float64(r.DegradedReads))
	return nil
}

func printAblation(a raidii.AblationResult) {
	fmt.Printf("%-32s with: %8.1f   without: %8.1f   (%s)\n    %s\n",
		a.Name, a.With, a.Without, a.Unit, a.Comment)
	jsonPoint(a.Name+"/with", 0, a.Unit, a.With)
	jsonPoint(a.Name+"/without", 0, a.Unit, a.Without)
}

// selectExperiments returns the experiments names asks for, in registry
// order, or every one for no names, and exit status 0.  An unknown name
// fails the whole selection: it is reported to w with the known
// experiments, and the status is 2.
func selectExperiments(all []experiment, names []string, w io.Writer) ([]experiment, int) {
	if len(names) == 0 {
		return all, 0
	}
	for _, n := range names {
		if !slices.ContainsFunc(all, func(ex experiment) bool { return ex.name == n }) {
			fmt.Fprintf(w, "unknown experiment %q; known:\n", n)
			for _, ex := range all {
				fmt.Fprintf(w, "  %-10s %s\n", ex.name, ex.desc)
			}
			return nil, 2
		}
	}
	var selected []experiment
	for _, ex := range all {
		if slices.Contains(names, ex.name) {
			selected = append(selected, ex)
		}
	}
	return selected, 0
}
