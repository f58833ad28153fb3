// Package wrapcheck defines the raidvet check for the sentinel-error
// contract at the internal/server → raidii API boundary.  The public
// package re-exports sentinels (raidii.ErrNotExist = lfs.ErrNotExist,
// raidii.ErrLinkDown = fault.ErrLinkDown, ...) and documents that
// callers test failures with errors.Is; that contract holds only if
// every fmt.Errorf on the way out wraps its error argument with %w.  A
// single %v in the chain silently severs it — the API still returns an
// error, but errors.Is(err, raidii.ErrLinkDown) goes false and client
// retry logic stops firing.
//
// The check is a function of one type-checked package: every
// fmt.Errorf whose error-typed argument sits under a verb other than
// %w is reported, with a suggested fix that rewrites the verb to %w,
// and so is an Errorf with an error-typed argument whose format cannot
// be paired with its arguments at all.  It does not ask which sentinel
// the argument might carry — an error that crosses the boundary
// unwrapped is a finding whether or not one can be traced — so it
// needs nothing from any other package.  The driver scopes the reports
// to the boundary packages.
package wrapcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"raidii/internal/analysis/framework"
)

// Analyzer enforces %w wrapping at the API boundary.
var Analyzer = &framework.Analyzer{
	Name: "wrapcheck",
	Doc:  "errors crossing the internal/server → raidii boundary must be %w-wrapped so errors.Is works against re-exported sentinels",
	Run:  run,
}

func run(pass *framework.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := calleeOf(pass, call); callee != nil && callee.Pkg() != nil &&
				callee.Pkg().Path() == "fmt" && callee.Name() == "Errorf" {
				checkErrorf(pass, call)
			}
		}
		return true
	})
	return nil
}

var errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isError reports whether e is an error-typed operand.
func isError(pass *framework.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.Types[e].Type
	return t != nil && (types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface))
}

// calleeOf resolves the function object a call invokes, or nil.
func calleeOf(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.ObjectOf(id).(*types.Func)
	return fn
}

type verbPos struct {
	off  int // byte offset of the verb character within the literal token
	verb byte
}

// formatVerbs parses the string-literal format of an Errorf call (a
// type-checked one, so the format argument exists) into its
// arg-consuming verbs, with source offsets for suggested fixes.
// Returns ok=false for non-literal formats or ones using * or indexed
// arguments, where the k-th verb is not the k-th argument's.
func formatVerbs(call *ast.CallExpr) ([]verbPos, bool) {
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil, false
	}
	raw := lit.Value // includes quotes; offsets stay source-accurate
	var verbs []verbPos
	for i := 0; i < len(raw); i++ {
		if raw[i] != '%' {
			continue
		}
		j := i + 1
		if j < len(raw) && raw[j] == '%' {
			i = j
			continue
		}
		for j < len(raw) && strings.IndexByte("+-# 0123456789.", raw[j]) >= 0 {
			j++
		}
		if j >= len(raw) {
			break
		}
		c := raw[j]
		if c == '*' || c == '[' {
			return nil, false
		}
		verbs = append(verbs, verbPos{off: j, verb: c})
		i = j
	}
	return verbs, true
}

func checkErrorf(pass *framework.Pass, call *ast.CallExpr) {
	verbs, ok := formatVerbs(call)
	if !ok {
		// Silence here would let the call through the gate unchecked.
		for _, arg := range call.Args[1:] {
			if isError(pass, arg) {
				pass.Reportf(arg.Pos(), "fmt.Errorf format has an indexed verb or * width, or is not a literal: cannot pair verbs with arguments to check that this error is wrapped with %%w")
				return
			}
		}
		return
	}
	lit := call.Args[0].(*ast.BasicLit)
	for k, v := range verbs {
		argIdx := 1 + k
		if argIdx >= len(call.Args) {
			break
		}
		arg := call.Args[argIdx]
		if v.verb == 'w' || !isError(pass, arg) {
			continue
		}
		pass.Report(framework.Diagnostic{
			Pos:     arg.Pos(),
			Message: fmt.Sprintf("error argument of fmt.Errorf is formatted with %%%c, not %%w; errors.Is cannot match it across the API boundary", v.verb),
			Fixes: []framework.SuggestedFix{{
				Message: "wrap with %w",
				Edits: []framework.TextEdit{{
					Pos:     lit.ValuePos + token.Pos(v.off),
					End:     lit.ValuePos + token.Pos(v.off) + 1,
					NewText: "w",
				}},
			}},
		})
	}
}
