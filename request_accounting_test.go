package raidii

import (
	"fmt"
	"go/build"
	"slices"
	"testing"
	"time"

	"raidii/internal/fault"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/trace"
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

// TestSCSIRetriesCountOnTheRequest: a hardware read issued into a stalled
// SCSI string times out once on each command to the string and reissues
// it, and the hw-read kind counts exactly the scsi/retry spans its read
// closed.  No other test outside internal/telemetry reaches the scsi row
// of the outcome table.
func TestSCSIRetriesCountOnTheRequest(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Faults = fault.Plan{}.StringStallAt(time.Millisecond, 0, 0, 700*time.Millisecond)
	err := withSystem("scsi-retries", cfg, func(r *rig, sys *server.System) error {
		rec := trace.Attach(sys.Eng, trace.Config{})
		reg := telemetry.Attach(sys.Eng)
		return r.do("t", func(p *sim.Proc) error {
			p.Wait(2 * time.Millisecond)
			if err := sys.Boards[0].HardwareRead(p, 0, 1<<20); err != nil {
				return err
			}
			var spans uint64
			for _, sc := range rec.SpanCounts() {
				if sc.Cat == "scsi" && sc.Name == "retry" {
					spans = sc.Count
				}
			}
			if got := reg.Summary("hw-read").Retries; got != spans || got == 0 {
				return fmt.Errorf("hw-read counted %d retries, its read closed %d scsi/retry spans (want equal, above 0)", got, spans)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestModelLayersImportNoTelemetry: the layers below the request record
// their outcomes as spans, so none of them imports the metrics layer.
func TestModelLayersImportNoTelemetry(t *testing.T) {
	for _, name := range []string{"bytepath", "cache", "disk", "hippi", "lfs", "raid", "scsi", "xbus"} {
		pkg, err := build.ImportDir("internal/"+name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(pkg.Imports, "raidii/internal/telemetry") {
			t.Errorf("internal/%s imports internal/telemetry", name)
		}
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
