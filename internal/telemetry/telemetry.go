// Package telemetry is the simulation's metrics layer: a request-scoped
// context that follows one client request end to end through client -> net
// -> lfs -> cache -> raid -> scsi -> disk, one fixed record per
// request kind that each finished request folds into (outcome counts, cache
// lines, retries, exclusive time per stage and a fixed-bucket latency
// histogram), an in-flight gauge with a sampler that records it at a fixed
// simulated interval, and two exporters (Prometheus text exposition and
// versioned JSON) that walk one table of the ten exported families and
// whose output is byte-identical across identical runs.
//
// Where the tracing layer (internal/trace, DESIGN.md §8) records what each
// component did, telemetry aggregates what each *request* experienced.
// Memory is bounded — a kind's record is fixed-size, its histogram 64 log-2
// buckets, never sample slices — so the layer is safe to leave attached for
// million-request runs.
//
// # Determinism
//
// Every timestamp and duration the package records is simulated time; the
// registry is only mutated from inside simulated processes (single-threaded
// by the engine) or between runs; and the exporters visit kinds and stages
// sorted by name, never in raw map order.
// Identical runs therefore produce byte-identical exports, and CI enforces
// exactly that (see metrics_pin_test.go and metrics_determinism_test.go at
// the repo root, and DESIGN.md §13).
package telemetry

import "slices"

// categories is the one vocabulary of span categories: every p.Span model
// code opens names one of these (TestSpanCategoriesDeclared holds it to
// that), and the table decides which request stage the span's time accrues
// to.
//
// The first numStages entries are the pipeline layers, in the order a
// remote request traverses them.  A span of such a category that closes on
// a process carrying a live request is charged to the stage of the same
// name, the stage label of raidii_request_stage_ns_total.  Stage times are
// recorded per process as *exclusive* time — a scsi span nested inside a
// raid span charges scsi, not both, and a raid span nested inside a raid
// span splits the time without changing the stage's sum — but concurrent
// worker processes of one request each accrue their own stage time, so
// summed stage time measures work (like CPU seconds) and can exceed the
// request's wall-clock latency when legs overlap.
//
// Every other category is charged to no stage of its own: its time stays
// with the stage span it is nested in, or with no stage when there is none.
var categories = [...]string{
	"client", "net", "lfs", "cache", "raid", "scsi", "disk",

	"cluster", "datapath", "fault", "hippi", "scrub", "server", "xbus",
}

const numStages = 7

// outcomes is the one table of outcome spans: a span of this category and
// name closing on a process that carries a live request counts toward the
// request's outcomes, the way a stage span counts toward its stage.  Most
// are zero-length marks; a retry span closes after its backoff.  Any other
// span counts nothing: cluster/retry, the fleet's resend of a whole striped
// operation, stays out of the retry counts.
var outcomes = [...]struct {
	cat, name string
	count     func(r *Request)
}{
	{"cache", "hit", func(r *Request) { r.hits++ }},
	{"cache", "miss", func(r *Request) { r.misses++ }},
	{"scsi", "retry", func(r *Request) { r.retries++ }},
	{"client", "retry", func(r *Request) { r.retries++ }},
	{"raid", "degraded", func(r *Request) { r.degraded = true }},
	{"server", "degraded", func(r *Request) { r.degraded = true }},
}

// stageOf returns the index of the stage that spans of category cat accrue
// to, or -1.
func stageOf(cat string) int { return slices.Index(categories[:numStages], cat) }

// KnownCategory reports whether cat is a declared span category.
func KnownCategory(cat string) bool { return slices.Contains(categories[:], cat) }
