// Package errdrop defines the raidvet check against silently swallowed
// errors.  The simulator's fault model propagates failures as typed
// error values up the whole stack — disk firmware to SCSI to RAID to
// server to client — so a discarded error result anywhere on that path
// makes an injected fault invisible: the experiment "passes" while the
// hardware it models has failed.  PR 5 shipped exactly this bug (a
// chunk-read error dropped on the client retry path) and had to fix it
// by hand; this check catches the class before it lands.
//
// Two tiers of diagnostic:
//
//   - A call statement (or deferred call) whose error result vanishes
//     entirely is flagged everywhere, test files included — nothing in
//     the source marks the drop, so nobody ever decided it was safe.
//
//   - An explicit blank discard (`_ = f()`, `n, _ := f()`) is flagged
//     in non-test files only.  Writing `_` in a test is a visible,
//     deliberate act next to assertions that check the outcome another
//     way; in library code the same token hides a fault path.
//
// Exempt callees: the fmt print family (diagnostic output; wire-bound
// writers surface errors at Flush, which is checked), methods on
// bytes.Buffer and strings.Builder (documented to never fail), and the
// Write, WriteString, WriteByte and WriteRune methods of *bufio.Writer
// (its error is sticky: a failed write makes every later one a no-op, and
// Flush, which stays checked, reports it).
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"raidii/internal/analysis/framework"
)

// Analyzer flags discarded error results.
var Analyzer = &framework.Analyzer{
	Name:  "errdrop",
	Doc:   "flag discarded error results on fault-bearing paths; handle the error or document the drop with //lint:allow errdrop",
	Run:   run,
	Tests: true,
}

var errType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is the error interface or a type that
// implements it (excluding the empty interface, which everything does).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if types.Identical(t, errType) {
		return true
	}
	if iface, ok := errType.Underlying().(*types.Interface); ok {
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			return false // only the error interface itself counts
		}
		return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// errorResults returns the indices of error-typed results of call, and
// the total result count.  A nil slice means the call is exempt or has
// no error results.
func errorResults(pass *framework.Pass, call *ast.CallExpr) (idx []int, total int) {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return nil, 0
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		total = t.Len()
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				idx = append(idx, i)
			}
		}
	default:
		total = 1
		if isErrorType(tv.Type) {
			idx = []int{0}
		}
	}
	return idx, total
}

// exempt reports whether the callee belongs to the documented exemption
// list: fmt's print family, the never-failing buffer writers, and
// bufio.Writer's sticky writes.
func exempt(pass *framework.Pass, call *ast.CallExpr) bool {
	// Type conversions are CallExprs too.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		if id, ok := call.Fun.(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
				return true
			}
		}
		return false
	}
	obj := pass.ObjectOf(sel.Sel)
	if obj == nil {
		return false
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		return true
	}
	if selinfo, ok := pass.TypesInfo.Selections[sel]; ok {
		recv := selinfo.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
			switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
			case "bytes.Buffer", "strings.Builder":
				return true
			case "bufio.Writer":
				switch sel.Sel.Name {
				case "Write", "WriteString", "WriteByte", "WriteRune":
					return true
				}
			}
		}
	}
	return false
}

// calleeName renders the called function for the diagnostic message.
func calleeName(pass *framework.Pass, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		inTest := pass.InTestFile(file.Pos())
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					checkDropped(pass, call, inTest, false)
				}
			case *ast.DeferStmt:
				checkDropped(pass, st.Call, inTest, true)
			case *ast.AssignStmt:
				if !inTest {
					checkBlank(pass, st)
				}
			}
			return true
		})
	}
	return nil
}

// checkDropped flags a statement or deferred call whose error result is
// not bound at all.
func checkDropped(pass *framework.Pass, call *ast.CallExpr, inTest, deferred bool) {
	if exempt(pass, call) {
		return
	}
	idx, total := errorResults(pass, call)
	if len(idx) == 0 {
		return
	}
	name := calleeName(pass, call)
	kind := "result of"
	if deferred {
		kind = "deferred call to"
	}
	d := framework.Diagnostic{
		Pos:     call.Pos(),
		Message: kind + " " + name + " discards its error; handle it or document the drop with //lint:allow errdrop <reason>",
	}
	// In test files an explicit blank discard is the sanctioned idiom,
	// so the mechanical fix is to write the discard out loud.
	if inTest && !deferred {
		blanks := strings.Repeat("_, ", total-1) + "_ = "
		d.Fixes = []framework.SuggestedFix{{
			Message: "make the discard explicit",
			Edits:   []framework.TextEdit{{Pos: call.Pos(), End: call.Pos(), NewText: blanks}},
		}}
	}
	pass.Report(d)
}

// checkBlank flags error results assigned to the blank identifier.
func checkBlank(pass *framework.Pass, st *ast.AssignStmt) {
	// Multi-value form: a, _ := f()
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok || exempt(pass, call) {
			return
		}
		idx, _ := errorResults(pass, call)
		for _, i := range idx {
			if i < len(st.Lhs) && isBlank(st.Lhs[i]) {
				pass.Reportf(st.Lhs[i].Pos(), "error result of %s is discarded with _; handle it or document the drop with //lint:allow errdrop <reason>",
					calleeName(pass, call))
			}
		}
		return
	}
	// Parallel form: _ = err, or _, _ = f(), g()
	for i, lhs := range st.Lhs {
		if !isBlank(lhs) || i >= len(st.Rhs) {
			continue
		}
		rhs := st.Rhs[i]
		if call, ok := rhs.(*ast.CallExpr); ok {
			if exempt(pass, call) {
				continue
			}
			if idx, _ := errorResults(pass, call); len(idx) > 0 {
				pass.Reportf(lhs.Pos(), "error result of %s is discarded with _; handle it or document the drop with //lint:allow errdrop <reason>",
					calleeName(pass, call))
			}
			continue
		}
		if tv, ok := pass.TypesInfo.Types[rhs]; ok && isErrorType(tv.Type) {
			pass.Reportf(lhs.Pos(), "error value is discarded with _; handle it or document the drop with //lint:allow errdrop <reason>")
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
