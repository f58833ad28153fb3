package raidii

import (
	"fmt"
	"testing"

	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
)

// TestFSReadRequestAccountsItsReads: a cold 1 MB FSRead on a cached board
// fans out through read-piece, lfs-read-run, cache-fill and raid-read
// workers, and every one of them works for the request — it records exactly
// the cache lines the board's cache counted for the read, and the disk time
// the misses cost.  (LFS's read runs used not to carry the request: the read
// then recorded no line and no disk time at all.)
func TestFSReadRequestAccountsItsReads(t *testing.T) {
	cfg := server.Fig8Config()
	cfg.CacheBytes = 8 << 20
	cfg.CacheLineBytes = 16 << 10
	err := withSystem("fsread-accounting", cfg, func(r *rig, sys *server.System) error {
		reg := telemetry.Attach(sys.Eng)
		b := sys.Boards[0]
		return r.do("t", func(p *sim.Proc) error {
			if err := b.FormatFS(p); err != nil {
				return err
			}
			f, err := b.CreateFS(p, "/cold")
			if err != nil {
				return err
			}
			const size = 1 << 20
			if err := b.FSWrite(p, f, 0, make([]byte, size)); err != nil {
				return err
			}
			if err := b.FS.Sync(p); err != nil {
				return err
			}
			b.Cache.InvalidateAll() // writes stage their lines: make the read cold
			before := b.Cache.Stats()
			if _, err := b.FSRead(p, f, 0, size); err != nil {
				return err
			}
			after := b.Cache.Stats()
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			if misses == 0 {
				return fmt.Errorf("a cold read missed no cache line (hits %d)", hits)
			}
			gotHits := exportedCounter(reg, "raidii_request_cache_hits_total", "fs-read")
			gotMisses := exportedCounter(reg, "raidii_request_cache_misses_total", "fs-read")
			if gotHits != hits || gotMisses != misses {
				return fmt.Errorf("fs-read recorded %d hits / %d misses, the cache counted %d / %d for the read",
					gotHits, gotMisses, hits, misses)
			}
			for _, st := range reg.Summary("fs-read").Stages {
				if st.Stage == "disk" && st.Total > 0 {
					return nil
				}
			}
			return fmt.Errorf("fs-read recorded no disk stage time: %+v", reg.Summary("fs-read").Stages)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exportedCounter returns the value of kind's series of the counter family
// name in reg's export, 0 when the series does not exist.
func exportedCounter(reg *telemetry.Registry, name, kind string) uint64 {
	for _, c := range telemetry.Export(reg, telemetry.ExportOptions{}).Counters {
		if c.Name == name && c.Labels["kind"] == kind {
			return c.Value
		}
	}
	return 0
}
