// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against expectations written in the fixtures
// themselves, mirroring golang.org/x/tools/go/analysis/analysistest:
// a comment
//
//	// want `regexp`
//
// on a source line asserts that the analyzer reports a diagnostic on
// that line whose message matches the regexp (several want patterns on
// one line assert several diagnostics).  Lines carrying a
// "//lint:allow <check> <reason>" comment are filtered exactly as the
// raidvet driver filters them, so fixtures also exercise suppression.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"raidii/internal/analysis/config"
	"raidii/internal/analysis/framework"
	"raidii/internal/analysis/load"
)

// wantRe extracts the backquoted or double-quoted patterns of a want
// comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run checks analyzer a against the fixture packages named by pkgpaths,
// each rooted at testdata/src/<path> under dir and importing only the
// standard library.  Fixture files named *_test.go are included only
// when the analyzer asks for test files.
func Run(t *testing.T, dir string, a *framework.Analyzer, pkgpaths ...string) {
	t.Helper()
	ld := load.NewLoader()
	for _, pp := range pkgpaths {
		runPkg(t, ld, dir, a, pp)
	}
}

func runPkg(t *testing.T, ld *load.Loader, dir string, a *framework.Analyzer, pkgpath string) {
	t.Helper()
	src := filepath.Join(dir, "src", pkgpath)
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("%s: reading fixture dir: %v", a.Name, err)
	}
	var filenames []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if !a.Tests && strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		filenames = append(filenames, filepath.Join(src, e.Name()))
	}
	if len(filenames) == 0 {
		t.Fatalf("%s: no fixture files under %s", a.Name, src)
	}
	pkg, err := ld.Check(pkgpath, src, filenames)
	if err != nil {
		t.Fatalf("%s: loading fixture %s: %v", a.Name, pkgpath, err)
	}

	// Gather want expectations from the fixture comments.
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := ld.Fset().Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	// Run the analyzer, honoring //lint:allow exactly as the driver does.
	sups := config.CollectSuppressions(ld.Fset(), pkg.Files)
	var diags []framework.Diagnostic
	pass := &framework.Pass{
		Analyzer:  a,
		Fset:      ld.Fset(),
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report: func(d framework.Diagnostic) {
			if !sups.Suppressed(a.Name, ld.Fset(), d.Pos) {
				diags = append(diags, d)
			}
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer failed on %s: %v", a.Name, pkgpath, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	// Match diagnostics to expectations.
	for _, d := range diags {
		pos := ld.Fset().Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
