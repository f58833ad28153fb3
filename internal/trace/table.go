package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Table renders the per-component utilization/bottleneck report: one row
// per resource that saw at least one acquisition, sorted by utilization
// (ties broken by name so output is deterministic).  limit > 0 keeps only
// the top rows; limit <= 0 keeps all.
//
// The bottleneck line names the most-utilized component — the paper's
// methodology for explaining every figure's plateau (Cougar strings at
// ~3 MB/s, VME ports at ~6.9 MB/s, ...).
func (rec *Recorder) Table(limit int) string {
	now := rec.eng.Now()
	type row struct {
		r    *Resource
		util float64
	}
	rows := make([]row, 0, len(rec.resources))
	for _, r := range rec.resources {
		if r.Acquires == 0 {
			continue
		}
		rows = append(rows, row{r: r, util: r.UtilizationAt(now)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].util != rows[j].util {
			return rows[i].util > rows[j].util
		}
		return rows[i].r.Name < rows[j].r.Name
	})

	var b strings.Builder
	fmt.Fprintf(&b, "component utilization (%s, sim time %.3fs)\n", rec.cfg.Label, now.Seconds())
	fmt.Fprintf(&b, "%7s %12s %12s %5s %10s %5s  %s\n",
		"util", "busy", "q-wait", "maxq", "acquires", "cap", "component")
	shown := rows
	if limit > 0 && len(rows) > limit {
		shown = rows[:limit]
	}
	for _, rw := range shown {
		fmt.Fprintf(&b, "%6.1f%% %11.3fs %11.3fs %5d %10d %5d  %s\n",
			rw.util*100,
			rw.r.BusyAt(now).Seconds()/float64(rw.r.Cap),
			rw.r.WaitSum.Seconds(),
			rw.r.MaxQueue,
			rw.r.Acquires,
			rw.r.Cap,
			rw.r.Name)
	}
	if len(shown) < len(rows) {
		fmt.Fprintf(&b, "  ... %d more components below the top %d\n", len(rows)-len(shown), limit)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "bottleneck: %s (%.1f%% utilized)\n", rows[0].r.Name, rows[0].util*100)
	} else {
		b.WriteString("no resource activity recorded\n")
	}
	// Cache effectiveness, when the run touched a block cache: hit rate is
	// the paper-methodology companion to the utilization rows (a high rate
	// moves the bottleneck from the VME disk ports to the crossbar/HIPPI).
	hits := rec.spanCount("cache", "hit")
	misses := rec.spanCount("cache", "miss")
	if hits.Count+misses.Count > 0 {
		evicts := rec.spanCount("cache", "evict")
		rate := float64(hits.Count) / float64(hits.Count+misses.Count)
		fmt.Fprintf(&b, "cache: %d hits / %d misses (%.1f%% hit rate), %d evictions\n",
			hits.Count, misses.Count, rate*100, evicts.Count)
	}
	// Admission control, when any board enforced a limit: shed and queued
	// counts explain a bandwidth sag that no utilization row shows.  A
	// queued request is one admission/wait span, the wait for a slot.
	admitted := rec.spanCount("server", "admit")
	queued := rec.spanCount("admission", "wait")
	shed := rec.spanCount("server", "shed")
	if admitted.Count+queued.Count+shed.Count > 0 {
		fmt.Fprintf(&b, "admission: %d admitted (%d queued %.3fs total wait), %d shed\n",
			admitted.Count, queued.Count, queued.Total.Seconds(), shed.Count)
	}
	// LFS back-pressure: appends that found every segment image in use and
	// waited for the array.  The lfs:images row above ranks by occupancy; the
	// time writers lost to it is here.
	if waits := rec.spanCount("lfs", "image-wait"); waits.Count > 0 {
		fmt.Fprintf(&b, "lfs: %d appends waited %.3fs in all for a segment image\n", waits.Count, waits.Total.Seconds())
	}
	// Background parity patrol activity.
	scrubbed := rec.spanCount("scrub", "stripe")
	if scrubbed.Count > 0 {
		repairs := rec.spanCount("scrub", "repair")
		fmt.Fprintf(&b, "scrub: %d stripes verified, %d repairs\n", scrubbed.Count, repairs.Count)
	}
	// Per-port packet loss: the network layers emit one zero-length
	// net/packet-lost:<port> span per dropping party, so faults attribute
	// to the ring, an endpoint, or the Ethernet wire by name.
	type lossRow struct {
		port  string
		count uint64
	}
	var losses []lossRow
	for _, s := range rec.spanAgg {
		if s.Cat == "net" && strings.HasPrefix(s.Name, "packet-lost:") {
			losses = append(losses, lossRow{port: strings.TrimPrefix(s.Name, "packet-lost:"), count: s.Count})
		}
	}
	if len(losses) > 0 {
		sort.Slice(losses, func(i, j int) bool { return losses[i].port < losses[j].port })
		b.WriteString("packet loss by port:\n")
		for _, l := range losses {
			fmt.Fprintf(&b, "  %-24s %d lost\n", l.port, l.count)
		}
	}
	return b.String()
}
