package sim

// This file defines the engine's metrics attachment points, the second half
// of the observability surface next to the Tracer hooks in trace.go.  The
// engine knows nothing about metric types; it offers two primitives that
// internal/telemetry builds on:
//
//   - a single opaque "meter" slot on the engine, where a metrics registry
//     parks itself so model code deep in the stack can find it through
//     p.Engine() without threading a registry through every signature;
//   - a single annotation slot on each Proc, where a request-scoped context
//     rides along as the request flows client -> net -> lfs -> cache ->
//     raid -> scsi -> disk, and hears of every span the process closes.
//
// Neither schedules events: like a Tracer, metrics observe the simulation
// and never perturb it.

// SetMeter parks an opaque metrics sink on the engine (nil detaches).  The
// engine never touches the value; internal/telemetry stores its Registry
// here and model code retrieves it via Meter.
func (e *Engine) SetMeter(m any) { e.meter = m }

// Meter returns the value last passed to SetMeter, or nil.
func (e *Engine) Meter() any { return e.meter }

// SpanScope is a per-process annotation.  The engine asks two things of it:
// it is told of every span the process closes, which is how a Proc.Span
// feeds the request's stage breakdown and outcome counts as well as the
// trace, and it follows the workers the process forks.
type SpanScope interface {
	// SpanEnd reports the completed span [start, now] of category cat and
	// the given name on the annotated process, as Tracer.Span does.
	SpanEnd(cat, name string, start Time)
	// Follow is called first thing in the body of a worker forked (Proc.Fork,
	// Group.Go) from the annotated process.  It may annotate the worker, and
	// returns what to call when the worker's body returns.
	Follow(worker *Proc) (release func())
}

// SetMeterContext attaches a per-process annotation (nil clears).
// internal/telemetry stores a request scope here; the engine only carries
// it, reports spans to it and lets it follow forked workers.  What follows a
// request is decided by the group, not by the worker: a process spawned bare
// or through an engine-bound NewGroup starts with no annotation, which is
// right for background work — segment seals, the LFS cleaner,
// rebuild and scrub serve no one request.  The chunks of disk transfers
// and Path.Send are not processes and follow nobody: the issuing process's
// own span (disk/read, disk/write) already covers their time.
func (p *Proc) SetMeterContext(v SpanScope) { p.meterCtx = v }

// MeterContext returns the value last passed to SetMeterContext, or nil.
func (p *Proc) MeterContext() SpanScope { return p.meterCtx }
