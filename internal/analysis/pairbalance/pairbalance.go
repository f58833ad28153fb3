// Package pairbalance defines the raidvet check that promotes the
// runtime balance invariants of internal/sim/resources.go to
// compile-time findings: Acquire/Release on Server, ChooserServer and
// Tokens, and the begin/end closure returned by Proc.Span must balance
// on every control-flow path out of a function, early error returns
// included.  Today an unbalanced pair corrupts utilization accounting
// or trips a simpanic deep inside a run; this check points at the exact
// return statement that leaks.  (A Group needs no check: Group.Go is
// the only way to raise its count and lowers it when the worker
// returns.)
//
// The analysis is deliberately conservative — it reports only definite
// leaks and stays silent on handoff patterns it cannot prove:
//
//   - A resource is tracked in a function only if the function performs
//     BOTH an acquire-like and a release-like operation on it outside
//     nested function literals.  Acquire-only functions hand ownership
//     to a caller (Board.Admit); release-only functions receive it
//     (Board.Release); neither is this function's bug to balance.
//
//   - Any pair operation on a resource inside a nested function literal
//     marks the resource as escaped and untracks it: the closure runs
//     on another simulated process's schedule (a Group.Go worker, such
//     as zebra's per-fragment sends), so intra-function counting is
//     meaningless.
//
//   - At control-flow joins the per-path counts are merged with min, so
//     a loop that only acquires (paired with a later loop that only
//     releases) nets to zero instead of a spurious leak.
//
//   - TryAcquire is ignored (its success is data-dependent).
//
// A path ending in panic, os.Exit or log.Fatal is not a leak: the
// process is gone, and sim invariant failures already panic on purpose.
package pairbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"raidii/internal/analysis/framework"
)

// Analyzer flags resource pairs left unbalanced on some path.
var Analyzer = &framework.Analyzer{
	Name: "pairbalance",
	Doc:  "Acquire/Release, Reserve and Span begin/end must balance on every path out of a function",
	Run:  run,
}

// pairRecvNames are the named types whose methods form tracked pairs.
var pairRecvNames = map[string]bool{
	"Server":        true,
	"Tokens":        true,
	"ChooserServer": true,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkScope(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkScope(pass, fn.Body)
				// Do not prune: literals nest.
			}
			return true
		})
	}
	return nil
}

// op is one acquire- or release-like operation extracted from source.
type op struct {
	key   string
	delta int // positive acquires, negative releases
}

// classify maps a call to its pair operation, or returns ok=false.
func classify(pass *framework.Pass, call *ast.CallExpr) (o op, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return op{}, false
	}
	tv, haveType := pass.TypesInfo.Types[sel.X]
	if !haveType {
		return op{}, false
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || !pairRecvNames[named.Obj().Name()] {
		return op{}, false
	}
	key := named.Obj().Name() + " " + types.ExprString(sel.X)
	switch sel.Sel.Name {
	case "Acquire", "Reserve":
		return op{key, 1}, true
	case "Release":
		return op{key, -1}, true
	}
	return op{}, false
}

// isSpanCall reports whether call invokes Proc.Span (or any method named
// Span whose result is a bare func(), the begin/end closure shape).
func isSpanCall(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Span" {
		return false
	}
	tv, haveType := pass.TypesInfo.Types[call]
	if !haveType {
		return false
	}
	sig, isSig := tv.Type.(*types.Signature)
	return isSig && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// scope is the per-function analysis context: which keys are tracked
// and which local variables hold span closers.
type scope struct {
	pass    *framework.Pass
	tracked map[string]bool // resource keys with both ops present, not escaped
	spans   map[string]bool // span-closer variable names that are tracked
}

const spanPrefix = "span "

// checkScope analyzes one function body.
func checkScope(pass *framework.Pass, body *ast.BlockStmt) {
	sc := &scope{pass: pass, tracked: make(map[string]bool), spans: make(map[string]bool)}
	sc.survey(body)
	if len(sc.tracked) == 0 && len(sc.spans) == 0 {
		return
	}
	st := newState()
	sc.exec(body, st)
	if !st.term {
		sc.checkLeaks(st, body.Rbrace)
	}
}

// survey decides which keys the scope tracks: both-ops present outside
// nested literals, no escapes.
func (sc *scope) survey(body *ast.BlockStmt) {
	acq := make(map[string]bool)
	rel := make(map[string]bool)
	escaped := make(map[string]bool)
	spanAssigned := make(map[string]bool)
	spanCalled := make(map[string]bool)
	spanEscaped := make(map[string]bool)
	// callFunIdents remembers Ident nodes that appear as the Fun of a
	// call, so the escape pass below can tell "end()" (a close) from
	// "return end" (a handoff).
	callFunIdents := make(map[*ast.Ident]bool)

	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			if lit, isLit := m.(*ast.FuncLit); isLit && m != n {
				walk(lit.Body, depth+1)
				return false
			}
			call, isCall := m.(*ast.CallExpr)
			if !isCall {
				return true
			}
			if id, isIdent := call.Fun.(*ast.Ident); isIdent {
				callFunIdents[id] = true
				if depth == 0 {
					spanCalled[id.Name] = true
				} else {
					spanEscaped[id.Name] = true
				}
				return true
			}
			if o, isOp := classify(sc.pass, call); isOp {
				if depth > 0 {
					escaped[o.key] = true
					return true
				}
				if o.delta > 0 {
					acq[o.key] = true
				} else {
					rel[o.key] = true
				}
			}
			return true
		})
	}
	walk(body, 0)

	// Span closers: find `name := p.Span(...)` assignments at depth 0.
	spanDefs := make(map[string]*ast.Ident)
	ast.Inspect(body, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		as, isAssign := m.(*ast.AssignStmt)
		if !isAssign || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isIdent := lhs.(*ast.Ident)
			if !isIdent || id.Name == "_" {
				continue
			}
			if call, isCall := as.Rhs[i].(*ast.CallExpr); isCall && isSpanCall(sc.pass, call) {
				spanAssigned[id.Name] = true
				spanDefs[id.Name] = id
			}
		}
		return true
	})
	// A span var used anywhere other than as the Fun of a call (or its
	// own definition) escapes: returned, passed, stored.
	ast.Inspect(body, func(m ast.Node) bool {
		id, isIdent := m.(*ast.Ident)
		if !isIdent || !spanAssigned[id.Name] {
			return true
		}
		if callFunIdents[id] || spanDefs[id.Name] == id {
			return true
		}
		// Re-assignment of the same name from another Span call is a
		// fresh begin, not an escape.
		if def := spanDefs[id.Name]; def != nil && def != id {
			if obj1, obj2 := sc.pass.ObjectOf(id), sc.pass.ObjectOf(def); obj1 != nil && obj1 == obj2 {
				spanEscaped[id.Name] = true
			} else if obj1 == nil {
				spanEscaped[id.Name] = true
			}
		}
		return true
	})

	for k := range acq {
		if rel[k] && !escaped[k] {
			sc.tracked[k] = true
		}
	}
	for name := range spanAssigned {
		if spanCalled[name] && !spanEscaped[name] {
			sc.spans[name] = true
		}
	}
}

// state is the abstract per-path balance: how many of each key are
// open, and how many closes are queued on the defer stack.
type state struct {
	open     map[string]int
	deferred map[string]int
	term     bool
}

func newState() *state {
	return &state{open: make(map[string]int), deferred: make(map[string]int)}
}

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.open {
		c.open[k] = v
	}
	for k, v := range s.deferred {
		c.deferred[k] = v
	}
	c.term = s.term
	return c
}

// mergeMin folds other into s taking the minimum open count per key —
// at a join we only believe a leak both paths exhibit.
func (s *state) mergeMin(other *state) {
	if other.term {
		return // path left the function; nothing to join
	}
	if s.term {
		*s = *other.clone()
		return
	}
	for k, v := range s.open {
		ov := other.open[k]
		if ov < v {
			s.open[k] = ov
		}
	}
	for k := range other.open {
		if _, exists := s.open[k]; !exists {
			// other acquired something s never saw: min is zero.
			s.open[k] = 0
		}
	}
	for k, v := range other.deferred {
		if v > s.deferred[k] {
			s.deferred[k] = v
		}
	}
}

func (s *state) apply(o op) {
	n := s.open[o.key] + o.delta
	if n < 0 {
		n = 0 // release of something a caller owns; not ours to count
	}
	s.open[o.key] = n
}

// terminators that end a path without returning.
func isTerminatorCall(pass *framework.Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, isIdent := fun.X.(*ast.Ident); isIdent {
			if pn := pass.PkgFuncOf(x); pn != nil {
				switch pn.Imported().Path() {
				case "os":
					return fun.Sel.Name == "Exit"
				case "log":
					switch fun.Sel.Name {
					case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
						return true
					}
				case "runtime":
					return fun.Sel.Name == "Goexit"
				}
			}
		}
	}
	return false
}

// applyExprOps walks an expression tree (literals pruned) applying pair
// and span operations to st, in source order.
func (sc *scope) applyExprOps(e ast.Expr, st *state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		call, isCall := m.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if id, isIdent := call.Fun.(*ast.Ident); isIdent && sc.spans[id.Name] {
			st.apply(op{spanPrefix + id.Name, -1})
			return true
		}
		if o, isOp := classify(sc.pass, call); isOp && sc.tracked[o.key] {
			st.apply(o)
		}
		return true
	})
}

// exec interprets one statement, mutating st.
func (sc *scope) exec(stmt ast.Stmt, st *state) {
	if stmt == nil || st.term {
		return
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			if st.term {
				return
			}
			sc.exec(inner, st)
		}

	case *ast.IfStmt:
		sc.exec(s.Init, st)
		sc.applyExprOps(s.Cond, st)
		thenSt := st.clone()
		sc.exec(s.Body, thenSt)
		elseSt := st.clone()
		if s.Else != nil {
			sc.exec(s.Else, elseSt)
		}
		*st = *thenSt
		st.mergeMin(elseSt)
		if thenSt.term && elseSt.term {
			st.term = true
		}

	case *ast.ForStmt:
		sc.exec(s.Init, st)
		sc.applyExprOps(s.Cond, st)
		bodySt := st.clone()
		sc.exec(s.Body, bodySt)
		sc.exec(s.Post, bodySt)
		st.mergeMin(bodySt)
		if s.Cond == nil && bodySt.term {
			st.term = true // `for { ... return }` with no exit condition
		}

	case *ast.RangeStmt:
		sc.applyExprOps(s.X, st)
		bodySt := st.clone()
		sc.exec(s.Body, bodySt)
		st.mergeMin(bodySt)

	case *ast.SwitchStmt:
		sc.exec(s.Init, st)
		sc.applyExprOps(s.Tag, st)
		sc.execClauses(s.Body, st, hasDefaultClause(s.Body))

	case *ast.TypeSwitchStmt:
		sc.exec(s.Init, st)
		sc.execClauses(s.Body, st, hasDefaultClause(s.Body))

	case *ast.SelectStmt:
		sc.execClauses(s.Body, st, true)

	case *ast.ReturnStmt:
		// Results are not scanned for ops: an acquire in return
		// position (return tk.Reserve(n)) hands ownership to the
		// caller by construction.
		sc.checkLeaks(st, s.Pos())
		st.term = true

	case *ast.BranchStmt:
		// break/continue/goto leave this straight-line path; the
		// conservative choice (no leak report, no state merge) keeps
		// false positives out at the cost of missing leaks via break.
		st.term = true

	case *ast.DeferStmt:
		sc.execDefer(s, st)

	case *ast.ExprStmt:
		if call, isCall := s.X.(*ast.CallExpr); isCall && isTerminatorCall(sc.pass, call) {
			st.term = true
			return
		}
		sc.applyExprOps(s.X, st)

	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			sc.applyExprOps(rhs, st)
		}
		for _, lhs := range s.Lhs {
			sc.applyExprOps(lhs, st)
		}
		sc.applySpanAssign(s, st)

	case *ast.DeclStmt:
		if gd, isGen := s.Decl.(*ast.GenDecl); isGen {
			for _, spec := range gd.Specs {
				if vs, isVal := spec.(*ast.ValueSpec); isVal {
					for _, v := range vs.Values {
						sc.applyExprOps(v, st)
					}
				}
			}
		}

	case *ast.LabeledStmt:
		sc.exec(s.Stmt, st)

	case *ast.IncDecStmt:
		sc.applyExprOps(s.X, st)

	case *ast.SendStmt:
		sc.applyExprOps(s.Chan, st)
		sc.applyExprOps(s.Value, st)

	case *ast.GoStmt:
		// The spawned call runs on another schedule; argument
		// evaluation could hold ops but the repo never does that.
	}
}

// applySpanAssign opens a span for `name := p.Span(...)` when name is a
// tracked closer.
func (sc *scope) applySpanAssign(s *ast.AssignStmt, st *state) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, isIdent := lhs.(*ast.Ident)
		if !isIdent || !sc.spans[id.Name] {
			continue
		}
		if call, isCall := s.Rhs[i].(*ast.CallExpr); isCall && isSpanCall(sc.pass, call) {
			st.apply(op{spanPrefix + id.Name, 1})
		}
	}
}

// execDefer queues the closes a defer guarantees.
func (sc *scope) execDefer(s *ast.DeferStmt, st *state) {
	call := s.Call
	if id, isIdent := call.Fun.(*ast.Ident); isIdent && sc.spans[id.Name] {
		st.deferred[spanPrefix+id.Name]++
		return
	}
	if o, isOp := classify(sc.pass, call); isOp && o.delta < 0 && sc.tracked[o.key] {
		st.deferred[o.key] -= o.delta
		return
	}
	// Defer of anything else may still evaluate op-bearing arguments
	// now; scan them.
	for _, arg := range call.Args {
		sc.applyExprOps(arg, st)
	}
}

// execClauses runs each case/comm clause of body against a copy of st
// and min-merges the live outcomes.  When no default clause exists the
// zero-clause fall-through path keeps the incoming state.
func (sc *scope) execClauses(body *ast.BlockStmt, st *state, hasDefault bool) {
	entry := st.clone()
	var merged *state
	allTerm := true
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				sc.applyExprOps(e, st)
			}
			stmts = c.Body
		case *ast.CommClause:
			stmts = c.Body
		default:
			continue
		}
		cs := entry.clone()
		for _, inner := range stmts {
			if cs.term {
				break
			}
			sc.exec(inner, cs)
		}
		if !cs.term {
			allTerm = false
			if merged == nil {
				merged = cs
			} else {
				merged.mergeMin(cs)
			}
		}
	}
	if !hasDefault {
		allTerm = false
		if merged == nil {
			merged = entry.clone()
		} else {
			merged.mergeMin(entry)
		}
	}
	if merged != nil {
		*st = *merged
	}
	if allTerm {
		st.term = true
	}
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if c, isCase := clause.(*ast.CaseClause); isCase && c.List == nil {
			return true
		}
	}
	return false
}

// checkLeaks reports every key whose open count exceeds its queued
// defers at an exit point.
func (sc *scope) checkLeaks(st *state, pos token.Pos) {
	var keys []string
	for k, open := range st.open {
		if open > st.deferred[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if name, isSpan := strings.CutPrefix(k, spanPrefix); isSpan {
			sc.pass.Reportf(pos, "span closer %s is not called on this return path; every Span begin needs its end", name)
			continue
		}
		parts := strings.SplitN(k, " ", 2)
		sc.pass.Reportf(pos, "%s (%s) is still held on this return path; release it or defer the release", parts[1], parts[0])
	}
}
