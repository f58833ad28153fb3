package raidii

import (
	"fmt"
	"math/rand"

	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/workload"
)

// CacheWorkingSetPoint is one working-set size of the sweep, measured on
// the cached and uncached machines.
type CacheWorkingSetPoint struct {
	WorkingSetMB int
	CachedMBps   float64
	UncachedMBps float64
	HitRate      float64 // of the cached run's measurement phase

	// Per-request read latency of each machine's measurement phase: the
	// cached p50 collapses to crossbar DRAM cost while the working set
	// fits, and converges on the uncached curve past capacity.
	CachedLat   LatencyStats
	UncachedLat LatencyStats
}

// CacheWorkingSetResult is the full sweep.
type CacheWorkingSetResult struct {
	CacheMB int
	Fig     *Figure
	Points  []CacheWorkingSetPoint
}

// CacheWorkingSet sweeps a random-read working set across the capacity of
// an XBUS-resident block cache of cacheMB megabytes.  For each working-set
// size the machine is warmed with one sequential pass over the region,
// then measured with closed-queue random 256 KB reads confined to it; an
// identical uncached machine runs the same workload as the reference.
//
// Expected shape (the Thomasian mirrored/hybrid-array observation that
// buffer-cache hit rate dominates delivered bandwidth long before spindle
// limits): while the working set fits in cache the reads are served from
// crossbar DRAM and throughput sits at the HIPPI/crossbar plateau, several
// times the disk-bound reference; past cache capacity the hit rate — and
// with it the bandwidth — falls to the reference curve.  The knee sits at
// the cache size.
func CacheWorkingSet(cacheMB int, workingSetsMB []int) (CacheWorkingSetResult, error) {
	out := CacheWorkingSetResult{CacheMB: cacheMB}
	out.Fig = newFigure(
		fmt.Sprintf("Cache working set sweep (%d MB cache)", cacheMB),
		"working set MB", "MB/s")
	cached := out.Fig.AddSeries("cached")
	uncached := out.Fig.AddSeries("uncached")

	const reqSize = 256 << 10
	for _, ws := range workingSetsMB {
		pt := CacheWorkingSetPoint{WorkingSetMB: ws}
		for _, withCache := range []bool{true, false} {
			cfg := server.DefaultConfig()
			label := "uncached"
			if withCache {
				cfg.CacheBytes = cacheMB << 20
				label = "cached"
			}
			err := withSystem(fmt.Sprintf("cachews/%dMB/%s", ws, label), cfg, func(r *rig, sys *server.System) error {
				telemetry.Attach(sys.Eng)
				b := sys.Boards[0]
				wsBytes := ws << 20

				// Warm: one sequential pass over the working set, in 1 MB
				// requests so buffer acquisition stays well inside the DRAM
				// pool.  On the cached machine this leaves the region's tail
				// (up to cache capacity) resident, as a prior streaming
				// transfer through the board would.
				err := r.do("warm", func(p *sim.Proc) error {
					// One "warm" request spans the pass, so its HardwareReads
					// join it instead of skewing the hw-read measurement kind.
					req := telemetry.Begin(p, "warm")
					defer req.End(p, nil)
					const warmReq = 1 << 20
					for off := 0; off < wsBytes; off += warmReq {
						n := warmReq
						if n > wsBytes-off {
							n = wsBytes - off
						}
						if err := b.HardwareRead(p, int64(off)/512, n); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}

				statsBefore := CacheStats{}
				if b.Cache != nil {
					statsBefore = b.Cache.Stats()
				}
				res, err := r.fixedOps(outstanding, (32<<20)/reqSize, func(p *sim.Proc, _ int, rng *rand.Rand) (int, error) {
					align := int64(reqSize / 512)
					off := workload.RandomAligned(rng, int64(wsBytes)/512-align, align)
					return reqSize, b.HardwareRead(p, off, reqSize)
				})
				if err != nil {
					return err
				}
				if withCache {
					pt.CachedMBps = res.MBps()
					pt.CachedLat = telemetry.From(sys.Eng).Summary("hw-read")
					st := b.Cache.Stats()
					hits := st.Hits - statsBefore.Hits
					misses := st.Misses - statsBefore.Misses
					if hits+misses > 0 {
						pt.HitRate = float64(hits) / float64(hits+misses)
					}
				} else {
					pt.UncachedMBps = res.MBps()
					pt.UncachedLat = telemetry.From(sys.Eng).Summary("hw-read")
				}
				return nil
			})
			if err != nil {
				return out, err
			}
		}
		cached.Add(float64(ws), pt.CachedMBps)
		uncached.Add(float64(ws), pt.UncachedMBps)
		out.Points = append(out.Points, pt)
	}
	return out, nil
}
