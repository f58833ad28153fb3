package config

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestScopeApplies(t *testing.T) {
	cases := []struct {
		scope Scope
		rel   string
		want  bool
	}{
		{Scope{}, "internal/sim", true},
		{Scope{}, "", true},
		{Scope{Exclude: []string{"examples"}}, "examples/quickstart", false},
		{Scope{Exclude: []string{"examples"}}, "cmd/raidbench", true},
		{Scope{Exclude: []string{"internal/sim"}}, "internal/sim", false},
		{Scope{Exclude: []string{"internal/sim"}}, "internal/simx", true},
		{Scope{Include: []string{"internal"}}, "internal/disk", true},
		{Scope{Include: []string{"internal"}}, "", false},
		{Scope{Include: []string{"internal"}}, "cmd/raidvet", false},
		{Scope{Include: []string{"internal"}, Exclude: []string{"internal/sim"}}, "internal/sim", false},
		{DefaultScopes()["simpanic"], "", true},
		{DefaultScopes()["simpanic"], "internal/raid", true},
		{DefaultScopes()["simpanic"], "cmd/raidbench", false},
	}
	for _, c := range cases {
		if got := c.scope.Applies(c.rel); got != c.want {
			t.Errorf("Scope%+v.Applies(%q) = %v, want %v", c.scope, c.rel, got, c.want)
		}
	}
}

// The engine switches processes as coroutines, so no package — internal/sim
// least of all — may start a goroutine.
func TestRawgoExemptsNoPackage(t *testing.T) {
	rawgo := DefaultScopes()["rawgo"]
	for _, rel := range []string{"internal/sim", "internal/raid", "cmd/raidfsd", "examples/quickstart", ""} {
		if !rawgo.Applies(rel) {
			t.Errorf("rawgo does not apply to %q", rel)
		}
	}
}

func TestRelPath(t *testing.T) {
	cases := []struct{ mod, imp, want string }{
		{"raidii", "raidii", ""},
		{"raidii", "raidii/internal/sim", "internal/sim"},
		{"raidii", "raidiix/other", "raidiix/other"},
		{"raidii", "a", "a"},
	}
	for _, c := range cases {
		if got := RelPath(c.mod, c.imp); got != c.want {
			t.Errorf("RelPath(%q, %q) = %q, want %q", c.mod, c.imp, got, c.want)
		}
	}
}

func parse(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestSuppressions(t *testing.T) {
	src := `package x

func a() {
	_ = 1 //lint:allow simtime trailing comment covers its own line
	//lint:allow detrand standalone comment covers the next line
	_ = 2
	_ = 3
}
`
	fset, f := parse(t, src)
	sups := CollectSuppressions(fset, []*ast.File{f})
	if len(sups.Malformed()) != 0 {
		t.Fatalf("unexpected malformed suppressions: %+v", sups.Malformed())
	}
	posAt := func(line int) token.Pos {
		var pos token.Pos
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil && fset.Position(n.Pos()).Line == line && pos == token.NoPos {
				pos = n.Pos()
			}
			return true
		})
		if pos == token.NoPos {
			t.Fatalf("no node found on line %d", line)
		}
		return pos
	}
	if !sups.Suppressed("simtime", fset, posAt(4)) {
		t.Error("trailing comment should suppress simtime on its line")
	}
	if !sups.Suppressed("detrand", fset, posAt(6)) {
		t.Error("standalone comment should suppress detrand on the next line")
	}
	if sups.Suppressed("detrand", fset, posAt(7)) {
		t.Error("suppression must not leak past the following line")
	}
	if sups.Suppressed("rawgo", fset, posAt(4)) {
		t.Error("suppression is per-check; rawgo was not allowed")
	}
}

func TestMalformedSuppressions(t *testing.T) {
	src := `package x

func a() {
	_ = 1 //lint:allow simtime
	_ = 2 //lint:allow
}
`
	fset, f := parse(t, src)
	sups := CollectSuppressions(fset, []*ast.File{f})
	if got := len(sups.Malformed()); got != 2 {
		t.Fatalf("want 2 malformed suppressions (missing reason, missing check), got %d", got)
	}
}
