// Package load parses and type-checks Go packages for analysis without
// depending on golang.org/x/tools/go/packages.  Package enumeration is
// delegated to the go command ("go list -json"), and type checking uses
// the standard library's source importer, so transitive dependencies —
// both standard-library and in-module — are resolved from source.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// TestFileNames records which entries of Files came from
	// *_test.go sources (in-package tests only; external _test
	// packages are separate compilation units the driver skips).
	TestFileNames map[string]bool
}

// Loader owns the shared FileSet and importer so that repeated loads
// reuse already-checked dependencies (the source importer caches).
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader creates a loader with a fresh FileSet and source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Fset returns the loader's FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath  string
	Dir         string
	Name        string
	GoFiles     []string
	TestGoFiles []string
}

// Load enumerates the packages matched by patterns (relative to dir, or
// the current directory if dir is empty) and type-checks each.  Test
// files are excluded: GoFiles never includes *_test.go.
func (l *Loader) Load(dir string, patterns ...string) ([]*Package, error) {
	return l.load(dir, false, patterns...)
}

// LoadTests is Load with in-package *_test.go files included in each
// package's compilation unit (marked in TestFileNames).  External test
// packages (package foo_test) are not loaded.
func (l *Loader) LoadTests(dir string, patterns ...string) ([]*Package, error) {
	return l.load(dir, true, patterns...)
}

func (l *Loader) load(dir string, tests bool, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*Package
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []string
		testNames := make(map[string]bool)
		for _, f := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, f))
		}
		if tests {
			for _, f := range lp.TestGoFiles {
				full := filepath.Join(lp.Dir, f)
				files = append(files, full)
				testNames[full] = true
			}
		}
		pkg, err := l.Check(lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkg.TestFileNames = testNames
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Check parses the named files and type-checks them as one package with
// the given import path.  Used both by Load and by the analysistest
// harness (whose fixture packages live under testdata, invisible to the
// go command).
func (l *Loader) Check(importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", fn, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath:    importPath,
		Dir:           dir,
		Files:         files,
		Types:         tpkg,
		Info:          info,
		TestFileNames: make(map[string]bool),
	}, nil
}

// ModulePath reports the module path governing dir (e.g. "raidii").
func ModulePath(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out)), nil
}
