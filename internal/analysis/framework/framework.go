// Package framework is a minimal reimplementation of the
// golang.org/x/tools/go/analysis Analyzer/Pass model on top of the
// standard library's go/ast and go/types.  The repository vendors no
// third-party modules, so raidvet's checkers are written against this
// API instead; it is shaped so that migrating to x/tools later is a
// mechanical rename.
//
// Beyond the x/tools core (Analyzer, Pass, Diagnostic) the framework
// carries suggested fixes: a diagnostic may attach textual edits for
// the mechanical cases (replace a %v verb with %w, delete a stale
// //lint:allow comment); the driver applies them under -fix.  Every
// check is a function of one type-checked package, so passes share
// nothing and may run in any order.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the check in diagnostics and in
	// "//lint:allow <name> <reason>" suppression comments.
	Name string

	// Doc is a short description of what the check enforces and why.
	Doc string

	// Run applies the check to one package and reports diagnostics
	// through the pass.
	Run func(*Pass) error

	// Tests, when set, includes in-package *_test.go files in the
	// pass.  Checks that police production invariants leave it false
	// so the test corpus stays free to exercise edge cases.
	Tests bool
}

// TextEdit replaces the source range [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// SuggestedFix is one self-contained mechanical repair for a
// diagnostic.  Edits must not overlap.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// Fixes holds mechanical repairs, if the analyzer can offer any.
	// The driver applies the first fix under -fix.
	Fixes []SuggestedFix
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Inspect walks every file of the pass in depth-first order, calling fn
// for each node; fn returning false prunes the subtree.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// PkgFuncOf resolves an identifier to the package-level object it uses,
// returning the *types.PkgName if the identifier names an imported
// package (e.g. the "time" in time.Now), or nil otherwise.
func (p *Pass) PkgFuncOf(id *ast.Ident) *types.PkgName {
	if obj, ok := p.TypesInfo.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}

// ObjectOf returns the object an identifier denotes (uses first, then
// definitions), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return p.TypesInfo.Defs[id]
}

// InTestFile reports whether pos lies in a *_test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
