package main

import (
	"encoding/json"
	"sort"
)

// metric declares one benchmark metric: the name it is printed under, its
// unit, which direction is better, and — for end-to-end metrics — the share
// of the parent's median by which it may worsen before -compare (and the
// driver) call it a regression.  exact marks simulated-clock numbers: two
// runs with one seed must agree to 1e-9, whatever the bound says.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	exact  bool
	driver bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, on both clocks: the issue's
// ten metrics.  driver marks the ones BENCHMARK.json declares as end_to_end.
// The driver's contract wants each of those on every workload, never zero,
// and — because it varies the seed between runs — rejects a time that reads
// the same on every run.  A deterministic simulator's latency percentiles
// can do exactly that (every seq_write request takes 12.000 simulated ms),
// p99 needs 1,100 requests, a rebuild time needs a rebuild, and
// op_fail_share is zero by design; so those five ride with the per-layer
// metrics in BENCHMARK.json.  -workload still prints all ten together and
// -compare holds every simulated one to exact equality.
//
// Every bound is at least three times the spread (inter-quartile range over
// median) seen across ten seeds on this sandbox; README.md has the numbers.
// The bounds on alloc_mb and the two simulated rates are not noise
// allowances — for one seed those repeat to a fraction of a percent, or
// exactly — they cover the spread between seeds, which move offsets and
// therefore seeks and the number of reads a rebuild leaves room for.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, driver: true},
	{Name: "host_s", Unit: "s", Better: lower, Bound: 0.25, driver: true},
	{Name: "alloc_mb", Unit: "MB", Better: lower, Bound: 0.06, driver: true},
	{Name: "sim_mbps", Unit: "MB/s", Better: higher, Bound: 0.10, exact: true, driver: true},
	{Name: "sim_ops_per_s", Unit: "ops/s", Better: higher, Bound: 0.10, exact: true, driver: true},
	{Name: "sim_p50_ms", Unit: "ms", Better: lower, exact: true},
	{Name: "sim_p90_ms", Unit: "ms", Better: lower, exact: true},
	{Name: "sim_p99_ms", Unit: "ms", Better: lower, exact: true},
	{Name: "sim_rebuild_s", Unit: "s", Better: lower, exact: true},
	{Name: "op_fail_share", Unit: "ratio", Better: lower, exact: true},
}

// driverEndToEnd is the end_to_end list of BENCHMARK.json.
func driverEndToEnd() []metric {
	var out []metric
	for _, m := range endToEnd {
		if m.driver {
			out = append(out, m)
		}
	}
	return out
}

// tracedLayer comes from each workload's traced rep and the host counters
// around its untraced reps.
var tracedLayer = []metric{
	{Name: "sim.events", Unit: "count", Better: lower, exact: true},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: lower},

	{Name: "disk.ops", Unit: "count", Better: lower, exact: true},
	{Name: "disk.bytes_per_user_byte", Unit: "ratio", Better: lower, exact: true},
	{Name: "disk.busy_share", Unit: "ratio", Better: lower, exact: true},
	{Name: "disk.seq_hit_share", Unit: "ratio", Better: higher, exact: true},

	{Name: "scsi.string_busy_share", Unit: "ratio", Better: lower, exact: true},
	{Name: "scsi.string_wait_ms", Unit: "ms", Better: lower, exact: true},

	{Name: "xbus.parity_ops", Unit: "count", Better: lower, exact: true},
	{Name: "xbus.parity_busy_share", Unit: "ratio", Better: lower, exact: true},
	{Name: "xbus.port_busy_share_max", Unit: "ratio", Better: lower, exact: true},
	{Name: "xbus.bytes_moved_per_user_byte", Unit: "ratio", Better: lower, exact: true},

	{Name: "raid.disk_ios_per_user_io", Unit: "ratio", Better: lower, exact: true},
	{Name: "raid.fullstripe_share", Unit: "ratio", Better: higher, exact: true},
	{Name: "raid.degraded_reads", Unit: "count", Better: lower, exact: true},
	{Name: "raid.rebuild_stripes", Unit: "count", Better: lower, exact: true},
	{Name: "raid.stage_ms", Unit: "ms", Better: lower, exact: true},

	{Name: "cache.hit_share", Unit: "ratio", Better: higher, exact: true},
	{Name: "cache.evictions", Unit: "count", Better: lower, exact: true},
	{Name: "cache.fill_bytes_per_user_byte", Unit: "ratio", Better: lower, exact: true},
	{Name: "cache.stage_ms", Unit: "ms", Better: lower, exact: true},

	{Name: "lfs.segments_written", Unit: "count", Better: lower, exact: true},
	{Name: "lfs.partial_seal_share", Unit: "ratio", Better: lower, exact: true},
	{Name: "lfs.segments_cleaned", Unit: "count", Better: lower, exact: true},
	{Name: "lfs.blocks_moved", Unit: "count", Better: lower, exact: true},

	{Name: "server.nvram_commits", Unit: "count", Better: lower, exact: true},
	{Name: "server.nvram_degraded", Unit: "count", Better: lower, exact: true},
	{Name: "server.admission_queued", Unit: "count", Better: lower, exact: true},
	{Name: "server.admission_shed", Unit: "count", Better: lower, exact: true},

	{Name: "hippi.busy_share", Unit: "ratio", Better: lower, exact: true},
	{Name: "hippi.stage_ms", Unit: "ms", Better: lower, exact: true},

	{Name: "client.retries", Unit: "count", Better: lower, exact: true},
	{Name: "zebra.stale_fragments", Unit: "count", Better: lower, exact: true},

	{Name: "trace.overhead_share", Unit: "ratio", Better: lower},
	{Name: "trace.span_count", Unit: "count", Better: lower, exact: true},

	{Name: "host.wall_s", Unit: "s", Better: lower},
	{Name: "host.user_cpu_s", Unit: "s", Better: lower},
	{Name: "host.sys_cpu_s", Unit: "s", Better: lower},
	{Name: "host.gc_cpu_s", Unit: "s", Better: lower},
	{Name: "host.gc_cycles", Unit: "count", Better: lower},
	{Name: "host.alloc_objects", Unit: "count", Better: lower},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "host.calib_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "host.calib_step_ns", Unit: "ns", Better: lower},
}

// ladderLayer is each layer's public entry point driven alone by one
// simulated process (ladder.go).  The five err_vs_paper rows are the only
// accuracy statement the benchmark makes.
var ladderLayer = []metric{
	{Name: "sim.timer_ns_per_event", Unit: "ns", Better: lower},
	{Name: "sim.handoff_ns", Unit: "ns", Better: lower},
	{Name: "sim.spawn_ns", Unit: "ns", Better: lower},

	{Name: "disk.store_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "disk.store_write_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "disk.seq_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "disk.seq_read_sim_mbps", Unit: "MB/s", Better: higher, exact: true},
	{Name: "disk.rand4k_read_sim_iops", Unit: "ops/s", Better: higher, exact: true},

	{Name: "scsi.seq_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "scsi.seq_read_sim_mbps", Unit: "MB/s", Better: higher, exact: true},

	{Name: "xbus.xor_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "xbus.xor_into_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "xbus.xor_sim_mbps", Unit: "MB/s", Better: higher, exact: true},

	{Name: "raid.l5_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "raid.l5_fullstripe_write_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "raid.l5_rmw4k_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "raid.l5_degraded_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "raid.l5_rebuild_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "raid.l6_fullstripe_write_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "raid.l6_rmw4k_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "raid.l6_degraded2_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "raid.l6_rebuild_ns_per_kb", Unit: "ns/KB", Better: lower},

	{Name: "cache.hit_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "cache.miss_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "cache.write_ns_per_kb", Unit: "ns/KB", Better: lower},

	{Name: "lfs.seq_write_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "lfs.seq_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "lfs.small_create_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "lfs.clean_ns_per_segment", Unit: "ns", Better: lower},
	{Name: "lfs.mount_ns", Unit: "ns", Better: lower},
	{Name: "lfs.check_ns", Unit: "ns", Better: lower},
	{Name: "lfs.write_amp", Unit: "ratio", Better: lower, exact: true},

	{Name: "server.hw_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "server.hw_write_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "server.fs_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "server.fs_write_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "server.durable4k_ns_per_op", Unit: "ns/op", Better: lower},
	{Name: "server.fs_read_sim_mbps", Unit: "MB/s", Better: higher, exact: true},
	{Name: "server.fs_write_sim_mbps", Unit: "MB/s", Better: higher, exact: true},

	{Name: "hippi.send_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "hippi.send_sim_mbps", Unit: "MB/s", Better: higher, exact: true},

	{Name: "client.read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "client.write_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "client.read_sim_mbps", Unit: "MB/s", Better: higher, exact: true},

	{Name: "zebra.write_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "zebra.read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "zebra.degraded_read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "zebra.rebuild_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "zebra.read_sim_mbps", Unit: "MB/s", Better: higher, exact: true},
	{Name: "zebra.write_sim_mbps", Unit: "MB/s", Better: higher, exact: true},

	{Name: "server.hw_read_err_vs_paper", Unit: "ratio", Better: lower, exact: true},
	{Name: "server.hw_write_err_vs_paper", Unit: "ratio", Better: lower, exact: true},
	{Name: "hippi.err_vs_paper", Unit: "ratio", Better: lower, exact: true},
	{Name: "scsi.string_err_vs_paper", Unit: "ratio", Better: lower, exact: true},
	{Name: "client.read_err_vs_paper", Unit: "ratio", Better: lower, exact: true},
}

// perLayer is every metric a --trace 1 run reports, in print order.
func perLayer() []metric {
	var out []metric
	for _, m := range endToEnd {
		if !m.driver {
			out = append(out, m)
		}
	}
	out = append(out, tracedLayer...)
	return append(out, ladderLayer...)
}

// lookup finds a metric's declaration by name.
func lookup(name string) (metric, bool) {
	for _, list := range [][]metric{endToEnd, tracedLayer, ladderLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// runSeconds is the measuring time BENCHMARK.json hands the driver: measured
// reps repeat until their set-up plus timed phases have used this much host
// time (at least minReps, at most maxReps of them).
const runSeconds = 10

// benchmarkJSON renders the declarations in the shape of the repository's
// BENCHMARK.json; a test holds the checked-in file to it.
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{Name: w.name, Why: w.why})
	}
	for _, m := range driverEndToEnd() {
		doc.EndToEnd = append(doc.EndToEnd, e2e{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range perLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// sortedKeys returns m's keys in order, for deterministic printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
