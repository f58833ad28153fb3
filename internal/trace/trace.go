// Package trace records observability data from a simulation via the
// sim.Tracer hook interface and exports it two ways: Chrome trace_event
// JSON (loadable in Perfetto / chrome://tracing) and a plain-text
// per-component utilization table that names the bottleneck.
//
// Every timestamp a Recorder sees is simulated time, so two identical runs
// produce byte-identical output; see DESIGN.md §8 for the determinism
// contract.
package trace

import "raidii/internal/sim"

// Config controls what a Recorder keeps.
type Config struct {
	// Label names the recorded simulation in exported traces (the Chrome
	// process name), e.g. "fig7/3disks".
	Label string
	// Pid is the Chrome trace process id under which this recorder's
	// events appear.  Distinct recorders combined into one file need
	// distinct pids.
	Pid int
	// Events enables per-event recording (process lifetimes, spans, queue
	// counters) for the Chrome exporter.  With Events false the recorder
	// keeps only per-resource aggregates, which is enough for Table and
	// costs O(resources) memory regardless of run length.
	Events bool
}

// Attach creates a Recorder and installs it as e's tracer.  Resources
// already constructed on e are replayed into the recorder, so attaching
// after system assembly loses nothing.
func Attach(e *sim.Engine, cfg Config) *Recorder {
	r := &Recorder{eng: e, cfg: cfg, procIdx: map[uint64]int{}, resIdx: map[string]int{}, spanIdx: map[spanKey]int{}}
	e.SetTracer(r)
	return r
}

// Resource aggregates one named resource's accounting.  Same-name resources
// (e.g. RAID-I's per-call "raidi-pipe" pipeline servers, or lazily created
// stripe locks) merge into a single entry: busy units sum, capacity is the
// per-instance maximum.
type Resource struct {
	Name     string
	Cap      int
	Acquires uint64       // successful acquisitions
	WaitSum  sim.Duration // total simulated time spent queued
	MaxQueue int          // peak queue depth observed

	busy    int     // units currently held
	waiting int     // processes currently queued
	busyInt float64 // integral of busy units over time, in unit·ns
	lastAdj sim.Time
}

// settle folds the busy level since lastAdj into the integral.
func (r *Resource) settle(now sim.Time) {
	r.busyInt += float64(r.busy) * float64(now-r.lastAdj)
	r.lastAdj = now
}

// UtilizationAt reports the time-averaged fraction of capacity in use from
// time zero to now.
func (r *Resource) UtilizationAt(now sim.Time) float64 {
	if now == 0 || r.Cap == 0 {
		return 0
	}
	integral := r.busyInt + float64(r.busy)*float64(now-r.lastAdj)
	return integral / (float64(now) * float64(r.Cap))
}

// BusyAt reports the cumulative busy time (integral of held units) up to now.
func (r *Resource) BusyAt(now sim.Time) sim.Duration {
	return sim.Duration(r.busyInt + float64(r.busy)*float64(now-r.lastAdj))
}

type procRec struct {
	id    uint64
	name  string
	start sim.Time
	end   sim.Time // -1 while running
}

type spanRec struct {
	tid        uint64
	cat, name  string
	start, end sim.Time
}

// counterRec samples one resource's occupancy after a hook fired.
type counterRec struct {
	res     int // index into resources
	at      sim.Time
	busy    int
	waiting int
}

// spanKey identifies a span kind for aggregation.  A struct key lets the
// hot Span hook index the aggregate map without building a concatenated
// string (which was one heap allocation per span recorded).
type spanKey struct {
	cat, name string
}

// Recorder implements sim.Tracer.  It must only be read (Table, WriteChrome)
// when the simulation is not running.
//
// Per-event records live in slabs (see slab.go) so full-event recording of
// long runs never re-copies its history and is allocation-free in steady
// state apart from one chunk allocation per slabChunk records.
type Recorder struct {
	eng *sim.Engine
	cfg Config

	procs   slab[procRec]
	procIdx map[uint64]int
	spans   slab[spanRec]

	resources []*Resource
	resIdx    map[string]int
	counters  slab[counterRec]

	spanAgg []SpanCount
	spanIdx map[spanKey]int
}

// SpanCount aggregates every span sharing a category and name: occurrence
// count and total simulated duration.  Unlike per-event span records these
// are kept even without Events, at O(distinct span kinds) memory, so Table
// can report span-derived statistics (e.g. cache hit rate) for any run.
type SpanCount struct {
	Cat, Name string
	Count     uint64
	Total     sim.Duration
}

// Label returns the configured label.
func (rec *Recorder) Label() string { return rec.cfg.Label }

// Now reports the recorded engine's current simulated time.
func (rec *Recorder) Now() sim.Time { return rec.eng.Now() }

// Resources returns the recorded resources in creation order.
func (rec *Recorder) Resources() []*Resource { return rec.resources }

// ProcStart implements sim.Tracer.
func (rec *Recorder) ProcStart(p *sim.Proc) {
	if !rec.cfg.Events {
		return
	}
	rec.procIdx[p.ID()] = rec.procs.append(procRec{id: p.ID(), name: p.Name(), start: rec.eng.Now(), end: -1})
}

// ProcFinish implements sim.Tracer.
func (rec *Recorder) ProcFinish(p *sim.Proc) {
	if !rec.cfg.Events {
		return
	}
	if i, ok := rec.procIdx[p.ID()]; ok {
		rec.procs.at(i).end = rec.eng.Now()
	}
}

// ResourceCreate implements sim.Tracer.
func (rec *Recorder) ResourceCreate(name string, capacity int) {
	if i, ok := rec.resIdx[name]; ok {
		if capacity > rec.resources[i].Cap {
			rec.resources[i].Cap = capacity
		}
		return
	}
	rec.resIdx[name] = len(rec.resources)
	rec.resources = append(rec.resources, &Resource{Name: name, Cap: capacity, lastAdj: rec.eng.Now()})
}

// lookup returns the accounting entry for name, creating it if a resource
// somehow escaped ResourceCreate.
func (rec *Recorder) lookup(name string) *Resource {
	if i, ok := rec.resIdx[name]; ok {
		return rec.resources[i]
	}
	rec.ResourceCreate(name, 1)
	return rec.resources[rec.resIdx[name]]
}

func (rec *Recorder) sample(r *Resource) {
	if !rec.cfg.Events {
		return
	}
	rec.counters.append(counterRec{
		res: rec.resIdx[r.Name], at: rec.eng.Now(), busy: r.busy, waiting: r.waiting,
	})
}

// ResourceWait implements sim.Tracer.
func (rec *Recorder) ResourceWait(name string, p *sim.Proc, depth int) {
	r := rec.lookup(name)
	r.waiting++
	if depth > r.MaxQueue {
		r.MaxQueue = depth
	}
	rec.sample(r)
}

// ResourceAcquire implements sim.Tracer.
func (rec *Recorder) ResourceAcquire(name string, p *sim.Proc, units int, waited sim.Duration, queued bool) {
	r := rec.lookup(name)
	r.Acquires++
	r.WaitSum += waited
	if queued {
		r.waiting--
	}
	r.settle(rec.eng.Now())
	r.busy += units
	rec.sample(r)
}

// ResourceRelease implements sim.Tracer.
func (rec *Recorder) ResourceRelease(name string, units int) {
	r := rec.lookup(name)
	r.settle(rec.eng.Now())
	r.busy -= units
	rec.sample(r)
}

// Span implements sim.Tracer.
func (rec *Recorder) Span(p *sim.Proc, cat, name string, start sim.Time) {
	key := spanKey{cat: cat, name: name}
	i, ok := rec.spanIdx[key]
	if !ok {
		i = len(rec.spanAgg)
		rec.spanIdx[key] = i
		rec.spanAgg = append(rec.spanAgg, SpanCount{Cat: cat, Name: name})
	}
	rec.spanAgg[i].Count++
	rec.spanAgg[i].Total += rec.eng.Now().Sub(start)
	if !rec.cfg.Events {
		return
	}
	rec.spans.append(spanRec{tid: p.ID(), cat: cat, name: name, start: start, end: rec.eng.Now()})
}

// SpanCounts returns the span aggregates in first-occurrence order.
func (rec *Recorder) SpanCounts() []SpanCount {
	out := make([]SpanCount, len(rec.spanAgg))
	copy(out, rec.spanAgg)
	return out
}

// spanCount returns the aggregate for (cat, name), zero-valued if never seen.
func (rec *Recorder) spanCount(cat, name string) SpanCount {
	if i, ok := rec.spanIdx[spanKey{cat: cat, name: name}]; ok {
		return rec.spanAgg[i]
	}
	return SpanCount{Cat: cat, Name: name}
}
