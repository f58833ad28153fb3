// Package pairbalance defines the raidvet check that keeps the balance
// invariants of internal/sim/resources.go honest at compile time:
// Acquire/Release (or AcquireN/ReleaseN) on Server and ChooserServer, and
// the begin/end closure returned by Proc.Span.  An unbalanced pair corrupts utilization
// accounting or parks every later taker for good.  (A Group needs no check:
// Group.Go is the only way to raise its count.)
//
// The rule is checked on every statement list — a block, a case clause, a
// comm clause: when a list opens a pair (X.Acquire(..), or v := p.Span(..))
// and a later statement of the same list closes it (X.Release(..) or v(),
// called or deferred), no statement in between may leave the list — no
// return, no goto, no labeled branch, no break or continue that escapes the
// loop, switch or select it sits in.  The finding points at that statement.
//
// Everything else is a handoff and untracked: an open its own list never
// closes (an acquire-only function, a release in a nested block, in a
// function literal or on another process), a close with no open before it,
// and TryAcquire.  A panic between is not a leak: the process is gone.
// Function literals are lists of their own.
package pairbalance

import (
	"go/ast"
	"go/token"
	"go/types"

	"raidii/internal/analysis/framework"
)

// Analyzer flags a statement that leaves a list between a pair's open and
// its close.
var Analyzer = &framework.Analyzer{
	Name: "pairbalance",
	Doc:  "a statement list that opens and closes an Acquire/Release or Span pair must not be left in between",
	Run:  run,
}

// pair names one tracked pair: a resource by its receiver expression and
// type name, or a span by its closer variable (kind "").
type pair struct {
	name, kind string
}

func run(pass *framework.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			checkList(pass, n.List)
		case *ast.CaseClause:
			checkList(pass, n.Body)
		case *ast.CommClause:
			checkList(pass, n.Body)
		}
		return true
	})
	return nil
}

// checkList pairs each open in list with the first later close of the same
// pair and reports every statement in between that leaves the list.
func checkList(pass *framework.Pass, list []ast.Stmt) {
	for i, s := range list {
		pr, ok := opens(pass, s)
		if !ok {
			continue
		}
		for j := i + 1; j < len(list); j++ {
			if cl, ok := closes(pass, list[j]); !ok || cl != pr {
				continue
			}
			exits(&ast.BlockStmt{List: list[i+1 : j]}, false, false, func(pos token.Pos, exit string) {
				if pr.kind == "" {
					pass.Reportf(pos, "span closer %s is not called on this %s path; every Span begin needs its end", pr.name, exit)
				} else {
					pass.Reportf(pos, "%s (%s) is still held on this %s path; release it or defer the release", pr.name, pr.kind, exit)
				}
			})
			break
		}
	}
}

// opens reports the pair s opens: a statement call X.Acquire(..) or
// X.AcquireN(..), or v :=
// p.Span(..) with a Span method whose result is a bare func().
func opens(pass *framework.Pass, s ast.Stmt) (pair, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, isCall := s.X.(*ast.CallExpr); isCall {
			return resource(pass, call, "Acquire")
		}
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			break
		}
		id, isIdent := s.Lhs[0].(*ast.Ident)
		call, isCall := s.Rhs[0].(*ast.CallExpr)
		if !isIdent || id.Name == "_" || !isCall {
			break
		}
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		sig, isSig := pass.TypesInfo.TypeOf(call).(*types.Signature)
		if isSel && sel.Sel.Name == "Span" && isSig && sig.Params().Len() == 0 && sig.Results().Len() == 0 {
			return pair{name: id.Name}, true
		}
	}
	return pair{}, false
}

// closes reports the pair s closes: X.Release(..), X.ReleaseN(..) or v(),
// as a statement or deferred.
func closes(pass *framework.Pass, s ast.Stmt) (pair, bool) {
	var call *ast.CallExpr
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
	}
	if call == nil {
		return pair{}, false
	}
	if id, isIdent := call.Fun.(*ast.Ident); isIdent && len(call.Args) == 0 {
		return pair{name: id.Name}, true
	}
	return resource(pass, call, "Release")
}

// resource reports the pair of call when it invokes method, or its n-unit
// form method+"N", on a Server or ChooserServer (matched by type name).
func resource(pass *framework.Pass, call *ast.CallExpr, method string) (pair, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != method && sel.Sel.Name != method+"N") {
		return pair{}, false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if named, isNamed := t.(*types.Named); isNamed {
		switch kind := named.Obj().Name(); kind {
		case "Server", "ChooserServer":
			return pair{name: types.ExprString(sel.X), kind: kind}, true
		}
	}
	return pair{}, false
}

// exits calls report for each statement in n that leaves n: a return, a
// goto, a labeled branch, or a break (continue) outside any switch, select
// or loop (loop) nested in n.  Function literals are not entered.
func exits(n ast.Node, inBreakable, inLoop bool, report func(token.Pos, string)) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			report(m.Pos(), "return")
		case *ast.BranchStmt:
			if m.Label != nil || m.Tok == token.GOTO ||
				(m.Tok == token.BREAK && !inBreakable) || (m.Tok == token.CONTINUE && !inLoop) {
				report(m.Pos(), m.Tok.String())
			}
		case *ast.ForStmt, *ast.RangeStmt:
			if m != n {
				exits(m, true, true, report)
				return false
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if m != n {
				exits(m, true, inLoop, report)
				return false
			}
		}
		return true
	})
}
