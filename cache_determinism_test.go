package raidii

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"raidii/internal/trace"
)

// TestCacheTraceDeterministic runs the same seeded workload twice on fully
// traced servers with an XBUS block cache enabled and demands byte-identical
// Chrome trace JSON and utilization tables.  Cache fills, hits, evictions,
// and write staging are all simulated events, so the cache must be a pure
// function of the run — the property the strict-equality bench-regression
// CI gate relies on.
func TestCacheTraceDeterministic(t *testing.T) {
	run := func() (string, string) {
		srv, err := NewServer(WithDisksPerString(1), WithCache(2<<20), WithCacheLineKB(16))
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.Attach(srv.Sys().Eng, trace.Config{Label: "cache-det", Pid: 1, Events: true})
		_, err = srv.Simulate(func(task *Task) error {
			if err := task.FormatFS(); err != nil {
				return err
			}
			f, err := task.Board(0).Create("/wl")
			if err != nil {
				return err
			}
			// 4 MB file over a 2 MB cache: the re-read loop below both hits
			// and overflows it, so the trace includes fills, hits, and
			// evictions.
			const fileSize = 4 << 20
			if _, err := f.Write(0, make([]byte, fileSize)); err != nil {
				return err
			}
			if err := task.Sync(); err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 40; i++ {
				n := 4096 * (1 + rng.Intn(8))
				off := rng.Int63n(fileSize - int64(n))
				if rng.Intn(3) == 0 {
					if _, err := f.Write(off, make([]byte, n)); err != nil {
						return err
					}
				} else if _, _, err := f.Read(off, n); err != nil {
					return err
				}
			}
			return task.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rec.Table(0)
	}

	json1, table1 := run()
	json2, table2 := run()
	if json1 != json2 {
		t.Error("cached-run trace JSON differs between identical runs")
	}
	if table1 != table2 {
		t.Errorf("utilization tables differ between identical runs:\nfirst:\n%s\nsecond:\n%s", table1, table2)
	}
	if !json.Valid([]byte(json1)) {
		t.Error("trace output is not valid JSON")
	}
	for _, ev := range []string{`"hit"`, `"miss"`} {
		if !strings.Contains(json1, ev) {
			t.Errorf("trace does not record cache %s events", ev)
		}
	}
	if !strings.Contains(table1, "cache:") {
		t.Error("utilization table has no cache line despite cache activity")
	}
}

// TestCacheWorkingSetKnee is the experiment-shape acceptance gate: a
// working set inside cache capacity must deliver at least twice the
// bandwidth of one far outside it, and at least twice the uncached
// reference — the knee the CacheWorkingSet sweep is built to show.
func TestCacheWorkingSetKnee(t *testing.T) {
	res, err := CacheWorkingSet(8, []int{4, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	in, out := res.Points[0], res.Points[1]
	if in.CachedMBps < 2*out.CachedMBps {
		t.Errorf("no knee: cached %.1f MB/s at 4 MB vs %.1f MB/s at 24 MB (want >= 2x)",
			in.CachedMBps, out.CachedMBps)
	}
	if in.CachedMBps < 2*in.UncachedMBps {
		t.Errorf("hit-dominated %.1f MB/s not >= 2x uncached %.1f MB/s",
			in.CachedMBps, in.UncachedMBps)
	}
	if in.HitRate < 0.95 {
		t.Errorf("4 MB working set in an 8 MB cache: hit rate %.2f, want >= 0.95", in.HitRate)
	}
	if out.HitRate > 0.8 {
		t.Errorf("24 MB working set in an 8 MB cache: hit rate %.2f suspiciously high", out.HitRate)
	}
}
