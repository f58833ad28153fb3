package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"raidii/internal/lfs"
	"raidii/internal/raid"
	"raidii/internal/server"
	"raidii/internal/sim"
	"raidii/internal/telemetry"
	"raidii/internal/trace"
)

// A rep is one repetition of a workload: assemble a fresh machine from the
// seed, set it up, run the timed phase, verify.  Every rep of a run sees
// the same seed, so everything it measures on the simulated clock must come
// out identical — run.go asserts that.
type rep struct {
	seed   int64
	small  bool // the tests' scale-down; never set from the command line
	traced bool // attach trace and telemetry sinks for the timed phase
	final  bool // last rep of the run: also pays for the parity check
	log    *spanLog
	parent int // the rep's span
	phase  int // the span of the phase in progress: setup, then timed

	or  *oracle
	rng *rand.Rand // run-level draws (stagger, fault-free choices); clients get their own

	eng    *sim.Engine
	boards []*server.Board
	extra  func(c counters) // workload-specific cumulative counters
	lfsOld lfs.Stats        // counters of file systems retired by a crash and remount

	start     time.Time
	calib0    calib // calibration just before set-up began
	lat       []sim.Duration
	userBytes int64
	rebuild   sim.Duration
	attempted int
	failed    int
	firstErr  error

	out sample
}

// sample is what one rep measured.
type sample struct {
	setupS, hostS float64   // at reference speed (see host.go)
	wallS         float64   // the timed phase's raw wall seconds
	usage         hostUsage // over the timed phase
	calib         calib     // mean of the readings on either side of the timed phase

	exact  map[string]float64 // simulated-clock metrics and layer counters: identical across reps
	traced map[string]float64 // busy shares, waits, stage times: traced rep only
}

// counters are cumulative layer counts read from the layers' Stats().
type counters map[string]float64

// pick returns full, or the tests' scaled-down size.
func (r *rep) pick(full, small int) int {
	if r.small {
		return small
	}
	return full
}

// fail records a failed operation or invariant.
func (r *rep) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// expect counts one invariant check and records its failure.
func (r *rep) expect(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// machine registers the engine and boards the rep's counters are read from.
func (r *rep) machine(eng *sim.Engine, boards ...*server.Board) {
	r.eng = eng
	r.boards = boards
}

// run executes fn as one simulated process and drives the engine until all
// resulting activity has drained.
func (r *rep) run(name string, fn func(p *sim.Proc) error) error {
	var err error
	r.eng.Spawn(name, func(p *sim.Proc) { err = fn(p) })
	r.eng.Run()
	return err
}

// clientRNG is client c's private stream of offsets and choices.
func (r *rep) clientRNG(c int) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1009 + int64(c) + 1))
}

// clients runs n closed-loop simulated clients to completion.  Each starts
// after a seeded stagger of up to 10 simulated ms, so clients do not march
// in lock-step and every seed sees a slightly different interleaving.
func (r *rep) clients(n int, body func(p *sim.Proc, c int) error) {
	span := r.log.begin(r.phase, fmt.Sprintf("%d-clients", n), 0)
	for c := 0; c < n; c++ {
		c := c
		stagger := sim.Duration(r.rng.Int63n(int64(10 * time.Millisecond)))
		r.eng.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			p.Wait(stagger)
			if err := body(p, c); err != nil {
				r.expect(err)
			}
		})
	}
	r.eng.Run()
	r.log.end(span)
}

// simClock is the simulated clock a request is timed on: the issuing
// *sim.Proc, or the task handle of the public Cluster API.
type simClock interface{ Now() sim.Time }

// request issues one client request of the given user bytes and records its
// simulated latency.  fn returns an error for a failed call or wrong bytes.
func (r *rep) request(clock simClock, name string, bytes int, fn func() error) {
	span := -1
	if r.traced {
		span = r.log.begin(r.phase, name, len(r.lat)+1)
	}
	t0 := clock.Now()
	err := fn()
	r.lat = append(r.lat, clock.Now().Sub(t0))
	if span >= 0 {
		r.log.end(span)
	}
	r.userBytes += int64(bytes)
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", name, err))
	}
}

// snapshot reads every layer's cumulative counters.
func (r *rep) snapshot() counters {
	c := counters{}
	fs := r.lfsOld
	for _, b := range r.boards {
		for _, d := range b.Disks {
			st := d.Drive.Stats()
			c["disk.reads"] += float64(st.Reads)
			c["disk.writes"] += float64(st.Writes)
			c["disk.bytes"] += float64(st.BytesRead + st.BytesWritten)
			c["disk.seq_hits"] += float64(st.SeqHits)
		}
		as := b.Array.Stats()
		c["raid.user_ios"] += float64(as.Reads + as.Writes)
		c["raid.disk_ios"] += float64(as.DiskReads + as.DiskWrites)
		c["raid.fullstripe"] += float64(as.FullStripeWrites)
		c["raid.stripe_writes"] += float64(as.FullStripeWrites + as.ReconstructWrites + as.StreamingWrites + as.SmallWrites)
		c["raid.degraded_reads"] += float64(as.DegradedReads)
		c["raid.rebuild_stripes"] += float64(as.RebuildStripes)
		c["xbus.parity_ops"] += float64(b.XB.ParityOps())
		c["xbus.mem_bytes"] += float64(b.XB.Memory.BytesMoved())
		if b.Cache != nil {
			cs := b.Cache.Stats()
			c["cache.hits"] += float64(cs.Hits)
			c["cache.misses"] += float64(cs.Misses)
			c["cache.evictions"] += float64(cs.Evictions)
			c["cache.fill_bytes"] += float64(cs.FillBytes)
		}
		if b.FS != nil {
			addLFS(&fs, b.FS.Stats())
		}
		nv := b.NVRAMStats()
		c["nvram.commits"] += float64(nv.Log.Commits)
		c["nvram.degraded"] += float64(nv.Log.Degraded)
		ad := b.AdmissionStats()
		c["admission.queued"] += float64(ad.Queued)
		c["admission.shed"] += float64(ad.Shed)
	}
	c["lfs.segments_written"] = float64(fs.SegmentsWritten)
	c["lfs.partial_seals"] = float64(fs.PartialSegSeals)
	c["lfs.segments_cleaned"] = float64(fs.SegmentsCleaned)
	c["lfs.blocks_moved"] = float64(fs.BlocksMoved)
	if r.extra != nil {
		r.extra(c)
	}
	return c
}

func addLFS(dst *lfs.Stats, s lfs.Stats) {
	dst.SegmentsWritten += s.SegmentsWritten
	dst.PartialSegSeals += s.PartialSegSeals
	dst.SegmentsCleaned += s.SegmentsCleaned
	dst.BlocksMoved += s.BlocksMoved
}

// retireFS keeps board b's file system counters before a crash and remount
// replaces the FS object (and its counters) with a fresh one.
func (r *rep) retireFS(b *server.Board) { addLFS(&r.lfsOld, b.FS.Stats()) }

// timed ends set-up and runs body as the timed phase: everything the
// benchmark reports on either clock is measured around this one call.
func (r *rep) timed(body func()) {
	setupWall := float64(hostSince(r.start)) / 1e9
	r.log.end(r.phase)
	quiesce()
	c1 := calibrate()
	r.out.setupS = atReference(setupWall, r.calib0, c1)

	var rec *trace.Recorder
	var reg *telemetry.Registry
	if r.traced {
		rec = trace.Attach(r.eng, trace.Config{Label: "benchmark", Events: false})
		reg = telemetry.Attach(r.eng)
	}
	before := r.snapshot()
	ev0, sim0 := r.eng.EventsExecuted(), r.eng.Now()
	r.phase = r.log.begin(r.parent, "timed", 0)
	u0, t0 := readUsage(), hostNow()

	body()

	ns := hostSince(t0)
	r.out.usage = readUsage().sub(u0)
	r.log.end(r.phase)
	c2 := calibrate()
	r.out.wallS = float64(ns) / 1e9
	r.out.hostS = atReference(r.out.wallS, c1, c2)
	r.out.calib = calib{stepNS: (c1.stepNS + c2.stepNS) / 2, copyNSPKB: (c1.copyNSPKB + c2.copyNSPKB) / 2}
	simDur := r.eng.Now().Sub(sim0)
	after := r.snapshot()

	r.out.exact = r.exactMetrics(before, after, simDur, r.eng.EventsExecuted()-ev0)
	if r.traced {
		r.out.traced = tracedMetrics(rec, reg, simDur)
		r.eng.SetTracer(nil)
		r.eng.SetMeter(nil)
	}
}

// nearestRank returns the q-quantile of sorted by the nearest-rank rule.
func nearestRank(sorted []sim.Duration, q float64) sim.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// exactMetrics turns the timed phase's simulated time, request latencies
// and counter deltas into the metrics that must repeat exactly.
func (r *rep) exactMetrics(before, after counters, simDur sim.Duration, events uint64) map[string]float64 {
	d := func(k string) float64 { return after[k] - before[k] }
	n := len(r.lat)
	user := float64(r.userBytes)
	m := map[string]float64{
		"requests":      float64(n),
		"sim_s":         simDur.Seconds(),
		"sim_mbps":      ratio(user/1e6, simDur.Seconds()),
		"sim_ops_per_s": ratio(float64(n), simDur.Seconds()),
		"sim.events":    float64(events),

		"disk.ops":                 d("disk.reads") + d("disk.writes"),
		"disk.bytes_per_user_byte": ratio(d("disk.bytes"), user),
		"disk.seq_hit_share":       ratio(d("disk.seq_hits"), d("disk.reads")),

		"xbus.parity_ops":                d("xbus.parity_ops"),
		"xbus.bytes_moved_per_user_byte": ratio(d("xbus.mem_bytes"), user),

		"raid.disk_ios_per_user_io": ratio(d("raid.disk_ios"), d("raid.user_ios")),
		"raid.fullstripe_share":     ratio(d("raid.fullstripe"), d("raid.stripe_writes")),
		"raid.degraded_reads":       d("raid.degraded_reads"),
		"raid.rebuild_stripes":      d("raid.rebuild_stripes"),

		"cache.hit_share":                ratio(d("cache.hits"), d("cache.hits")+d("cache.misses")),
		"cache.evictions":                d("cache.evictions"),
		"cache.fill_bytes_per_user_byte": ratio(d("cache.fill_bytes"), user),

		"lfs.segments_written":   d("lfs.segments_written"),
		"lfs.partial_seal_share": ratio(d("lfs.partial_seals"), d("lfs.segments_written")),
		"lfs.segments_cleaned":   d("lfs.segments_cleaned"),
		"lfs.blocks_moved":       d("lfs.blocks_moved"),

		"server.nvram_commits":    d("nvram.commits"),
		"server.nvram_degraded":   d("nvram.degraded"),
		"server.admission_queued": d("admission.queued"),
		"server.admission_shed":   d("admission.shed"),

		"client.retries":        d("client.retries"),
		"zebra.stale_fragments": after["zebra.stale_fragments_peak"],
	}
	if n > 0 {
		sorted := append([]sim.Duration{}, r.lat...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		ms := func(q float64) float64 { return float64(nearestRank(sorted, q)) / 1e6 }
		m["sim_p50_ms"] = ms(0.50)
		// A percentile is reported only with ten samples beyond it.
		if n >= 110 {
			m["sim_p90_ms"] = ms(0.90)
		}
		if n >= 1100 {
			m["sim_p99_ms"] = ms(0.99)
		}
	}
	if r.rebuild > 0 {
		m["sim_rebuild_s"] = r.rebuild.Seconds()
	}
	return m
}

// stageKinds are the request kinds the server datapath opens; their stage
// totals are pooled into one mean per stage.
var stageKinds = []string{"fs-read", "fs-write", "small-write", "hw-read", "hw-write"}

// tracedMetrics reads the sinks attached for the timed phase: busy shares
// and queue waits per resource class from the trace recorder, mean stage
// milliseconds per request from telemetry.
func tracedMetrics(rec *trace.Recorder, reg *telemetry.Registry, simDur sim.Duration) map[string]float64 {
	now := rec.Now()
	share := func(res *trace.Resource) float64 {
		return ratio(float64(res.BusyAt(now)), float64(simDur)*float64(res.Cap))
	}
	var diskBusy, disks, strBusy, strWait, strAcq, xorBusy, portBusy, ring float64
	for _, res := range rec.Resources() {
		name := res.Name
		switch {
		case strings.HasSuffix(name, ":actuator"):
			diskBusy += share(res)
			disks++
		case strings.Contains(name, ":string"):
			strBusy = math.Max(strBusy, share(res))
			strWait += float64(res.WaitSum)
			strAcq += float64(res.Acquires)
		case strings.Contains(name, "xbus") && !strings.HasSuffix(name, ":mem") &&
			!strings.HasSuffix(name, ":dram") && !strings.HasSuffix(name, ":admit"):
			portBusy = math.Max(portBusy, share(res))
			if strings.HasSuffix(name, ":xor") {
				xorBusy = math.Max(xorBusy, share(res))
			}
		case name == "ultranet":
			ring = share(res)
		}
	}
	var spans float64
	for _, sc := range rec.SpanCounts() {
		spans += float64(sc.Count)
	}
	stage := map[string]float64{}
	var reqs float64
	for _, kind := range stageKinds {
		sum := reg.Summary(kind)
		reqs += float64(sum.N)
		for _, st := range sum.Stages {
			stage[st.Stage] += float64(st.Total) / 1e6
		}
	}
	return map[string]float64{
		"disk.busy_share":          ratio(diskBusy, disks),
		"scsi.string_busy_share":   strBusy,
		"scsi.string_wait_ms":      ratio(strWait/1e6, strAcq),
		"xbus.parity_busy_share":   xorBusy,
		"xbus.port_busy_share_max": portBusy,
		"hippi.busy_share":         ring,
		"raid.stage_ms":            ratio(stage["raid"], reqs),
		"cache.stage_ms":           ratio(stage["cache"], reqs),
		"hippi.stage_ms":           ratio(stage["net"], reqs),
		"trace.span_count":         spans,
	}
}

// fsClean runs lfs.Check and reports anything it found as an error.
func fsClean(p *sim.Proc, fs *lfs.FS) error {
	rep, err := fs.Check(p)
	if err == nil && !rep.OK() {
		err = fmt.Errorf("lfs.Check: %d orphans, %d bad pointers", len(rep.Orphans), len(rep.BadPointers))
	}
	return err
}

// checkFS is the cheap end-of-rep invariant: lfs.Check comes back clean.
func (r *rep) checkFS(p *sim.Proc, b *server.Board) { r.expect(fsClean(p, b.FS)) }

// checkBoard runs the end-of-rep invariants on one board, after the timer
// has stopped: lfs.Check on every rep, and on the run's final rep the
// array's parity.
//
// Array.CheckParity walks every stripe of the array, written or not: 7.7
// host seconds on one full-size Fig. 8 board.  Reps are deterministic
// replicas (run.go asserts it), so one parity check per run covers them
// all; and on arrays too large to walk whole, a bounded scrub pass over the
// stripes the log has reached checks the same equations (a repair it has
// to make is an inconsistency) for a cost proportional to the data.
func (r *rep) checkBoard(p *sim.Proc, b *server.Board) {
	r.checkFS(p, b)
	if !r.final {
		return
	}
	a := b.Array
	stripeBytes := int64(a.DataDisks() * a.StripeUnitSectors() * a.SectorSize())
	stripes := a.Sectors() * int64(a.SectorSize()) / stripeBytes
	const walkWhole = 512 << 20
	if stripes*stripeBytes <= walkWhole {
		var err error
		if bad := a.CheckParity(p); bad != 0 {
			err = fmt.Errorf("CheckParity: %d inconsistent stripes", bad)
		}
		r.expect(err)
		return
	}
	// The log fills segments in address order from the front of the array.
	reached := (int64(b.FS.Stats().SegmentsWritten)+4)*int64(b.FS.SegmentBytes())/stripeBytes + 2
	if reached > stripes {
		reached = stripes
	}
	sc, err := a.StartScrub(raid.ScrubConfig{MaxStripes: reached, Interval: time.Microsecond})
	if err != nil {
		r.expect(err)
		return
	}
	verified, repairs := sc.Wait(p)
	if int64(verified) != reached || repairs != 0 {
		err = fmt.Errorf("parity scrub: %d of %d stripes verified, %d repaired", verified, reached, repairs)
	}
	r.expect(err)
}
