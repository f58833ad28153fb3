// Package rawgo defines the raidvet check forbidding raw go statements
// outside internal/sim.  The simulation's determinism rests on the
// event engine owning every interleaving: model concurrency must be
// expressed as sim.Proc processes (Engine.Spawn, or Group.Go workers of a
// group forked with Proc.Fork, which also carries the caller's request and
// the workers' first error), which the scheduler resumes one at a time in
// timestamp order.  A bare goroutine
// races the engine on shared model state and injects host-scheduler
// ordering into the timeline.
package rawgo

import (
	"go/ast"

	"raidii/internal/analysis/framework"
)

// Analyzer flags go statements.
var Analyzer = &framework.Analyzer{
	Name: "rawgo",
	Doc:  "forbid go statements outside internal/sim; spawn simulated processes (Engine.Spawn, Proc.Fork + Group.Go) so the event engine owns interleaving",
	Run:  run,
}

func run(pass *framework.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(g.Pos(), "raw go statement bypasses the simulation scheduler; use sim.Engine.Spawn, or p.Fork() and sim.Group.Go")
		}
		return true
	})
	return nil
}
