package sim

// This file defines the engine's observability hooks.  A Tracer sees every
// process lifecycle transition, every resource acquisition (with queue
// depth and time spent waiting), and the annotated spans model code opens
// with Proc.Span.  All hook timestamps are simulated time, so a tracer's
// output is as deterministic as the simulation itself; with no tracer
// attached the hooks cost one nil check.
//
// The concrete recorder and its exporters (Chrome trace_event JSON, the
// utilization/bottleneck table) live in internal/trace; the engine knows
// only this interface.

// Tracer observes a simulation.  Implementations must not call back into
// the engine (schedule events, spawn processes, advance time): hooks fire
// while the engine's internal state is mid-update.  The Proc passed to
// ResourceWait/ResourceAcquire is nil for acquisitions made outside any
// process: Server.TryAcquire or Server.Reserve from assembly code, and the
// link steps of a Path chunk, which is not a process and so produces no
// ProcStart/ProcFinish either.  The resource hooks are the engine's only
// account of how busy a resource was: resources keep no busy-time integral
// of their own.
type Tracer interface {
	// ProcStart fires when a process is spawned, at the spawn time.
	ProcStart(p *Proc)
	// ProcFinish fires when a process returns, at the finish time.
	// Processes reaped by Shutdown never finish and produce no call.
	ProcFinish(p *Proc)
	// ResourceCreate fires when a resource (a Server, which a Link wraps,
	// or a ChooserServer) is constructed, and is replayed for existing
	// resources when a tracer is attached to an engine that already has
	// some.
	ResourceCreate(name string, capacity int)
	// ResourceWait fires when p blocks on a resource; depth counts the
	// waiters in the queue including p.
	ResourceWait(name string, p *Proc, depth int)
	// ResourceAcquire fires when units of the resource are granted.  waited
	// is the simulated time spent queued (zero for immediate grants; may
	// also be zero for a queued grant handed over at the same timestamp),
	// and queued reports whether a ResourceWait preceded this grant.
	ResourceAcquire(name string, p *Proc, units int, waited Duration, queued bool)
	// ResourceRelease fires when units return to the resource.  The
	// releasing process may differ from the acquiring one (a buffer pool's
	// ReleaseN).
	ResourceRelease(name string, units int)
	// Span records a completed annotated interval [start, now] attributed
	// to process p, e.g. a disk seek or an LFS checkpoint.
	Span(p *Proc, cat, name string, start Time)
}

// resourceInfo remembers a constructed resource name so that a tracer
// attached after assembly still learns every resource's capacity: the
// largest among the resources built under the name.
type resourceInfo struct {
	name     string
	capacity int
}

// SetTracer attaches t to the engine (nil detaches).  Resources created
// before the call are replayed to t via ResourceCreate in creation order,
// once per name, with the largest capacity built under it.
// Attach tracers between runs, from outside any simulated process.
func (e *Engine) SetTracer(t Tracer) {
	e.tracer = t
	if t == nil {
		return
	}
	for _, r := range e.resources {
		t.ResourceCreate(r.name, r.capacity)
	}
}

// registerResource records a resource's existence and notifies the tracer.
// A name built again — a per-call pipeline's server, a remounted file
// system's lock — keeps its one entry, so the list does not grow with the
// run.
func (e *Engine) registerResource(name string, capacity int) {
	if i, ok := e.resIdx[name]; ok {
		e.resources[i].capacity = max(e.resources[i].capacity, capacity)
	} else {
		if e.resIdx == nil {
			e.resIdx = make(map[string]int)
		}
		e.resIdx[name] = len(e.resources)
		e.resources = append(e.resources, resourceInfo{name: name, capacity: capacity})
	}
	if e.tracer != nil {
		e.tracer.ResourceCreate(name, capacity)
	}
}

// noopSpanEnd is the shared close function returned when nobody listens,
// so unobserved spans allocate nothing.
var noopSpanEnd = func() {}

// Span opens an annotated span at the current simulated time and returns
// the function that closes it.  cat groups related spans (a component
// name: "disk", "raid", "lfs"); name identifies the phase ("seek",
// "checkpoint").  The closed span is recorded by the engine's tracer and
// reported to the process's SpanScope; with neither attached both open and
// close are no-ops.  (Span stays within the inlining budget, so the closer
// lives on the caller's stack: an observed span allocates nothing either.)
func (p *Proc) Span(cat, name string) func() {
	if p.eng.tracer == nil && p.meterCtx == nil {
		return noopSpanEnd
	}
	start := p.eng.now
	return func() { p.endSpan(cat, name, start) }
}

// endSpan reports the span [start, now] to whoever listens by now.
func (p *Proc) endSpan(cat, name string, start Time) {
	if t := p.eng.tracer; t != nil {
		t.Span(p, cat, name, start)
	}
	if p.meterCtx != nil {
		p.meterCtx.SpanEnd(cat, name, start)
	}
}

// ID returns the process's engine-unique identifier, assigned in spawn
// order (so IDs are deterministic run to run).
func (p *Proc) ID() uint64 { return p.id }
