// Package raidvet is the driver behind cmd/raidvet: it loads the
// packages named on the command line (tests included), runs each
// selected check over the packages its scope policy covers, filters
// the findings through //lint:allow suppressions, audits the allow
// comments themselves, and renders the survivors as text or
// machine-readable JSON.  Under -fix it applies the suggested fixes
// the analyzers attached.
package raidvet

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"raidii/internal/analysis/allowaudit"
	"raidii/internal/analysis/config"
	"raidii/internal/analysis/detrand"
	"raidii/internal/analysis/errdrop"
	"raidii/internal/analysis/framework"
	"raidii/internal/analysis/load"
	"raidii/internal/analysis/maporder"
	"raidii/internal/analysis/pairbalance"
	"raidii/internal/analysis/rawgo"
	"raidii/internal/analysis/simpanic"
	"raidii/internal/analysis/simtime"
	"raidii/internal/analysis/wrapcheck"
)

// Analyzers returns the full check suite in a stable order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		simtime.Analyzer,
		detrand.Analyzer,
		rawgo.Analyzer,
		maporder.Analyzer,
		simpanic.Analyzer,
		errdrop.Analyzer,
		wrapcheck.Analyzer,
		pairbalance.Analyzer,
		allowaudit.Analyzer,
	}
}

// Options configures one driver invocation.
type Options struct {
	// Dir is the working directory for package loading; "" means ".".
	Dir string
	// Patterns are go-list package patterns; empty means ./...
	Patterns []string
	// Checks restricts the run to the named analyzers; empty runs all.
	Checks []string
	// JSON renders findings as the stable JSON schema instead of text.
	JSON bool
	// Fix applies each finding's first suggested fix to the source.
	Fix bool
	// Out receives the rendered findings; nil discards them.
	Out io.Writer
}

// Finding is one surviving diagnostic, located and attributed.
type Finding struct {
	Check   string
	Pos     token.Position
	Message string
	Fixes   []framework.SuggestedFix
}

// jsonSchemaVersion guards consumers of the -json output; bump on any
// field change.
const jsonSchemaVersion = 1

type jsonFinding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	Fixable bool   `json:"fixable,omitempty"`
}

type jsonReport struct {
	Version  int           `json:"version"`
	Module   string        `json:"module"`
	Findings []jsonFinding `json:"findings"`
}

// Run analyzes the packages matched by patterns under dir and writes
// one line per finding to out.  It returns the number of findings.
// It is the plain-text entry point cmd/raidvet and CI use.
func Run(dir string, patterns []string, out io.Writer) (int, error) {
	return RunOpts(Options{Dir: dir, Patterns: patterns, Out: out})
}

// RunOpts is Run with the full option surface.
func RunOpts(opts Options) (int, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	selected, err := selectAnalyzers(opts.Checks)
	if err != nil {
		return 0, err
	}
	ld := load.NewLoader()
	modPath, err := load.ModulePath(dir)
	if err != nil {
		return 0, err
	}
	pkgs, err := ld.LoadTests(dir, opts.Patterns...)
	if err != nil {
		return 0, err
	}
	scopes := config.DefaultScopes()

	type pkgSups struct {
		pkg  *load.Package
		sups *config.Suppressions
	}
	var audited []pkgSups
	var all []Finding

	for _, pkg := range pkgs {
		rel := config.RelPath(modPath, pkg.ImportPath)
		sups := config.CollectSuppressions(ld.Fset(), pkg.Files)
		audited = append(audited, pkgSups{pkg, sups})
		for _, a := range selected {
			if scope, known := scopes[a.Name]; !known || !scope.Applies(rel) {
				continue
			}
			files := pkg.Files
			if !a.Tests && len(pkg.TestFileNames) > 0 {
				files = nil
				for _, f := range pkg.Files {
					tf := ld.Fset().File(f.Pos())
					if tf == nil || !pkg.TestFileNames[tf.Name()] {
						files = append(files, f)
					}
				}
			}
			name := a.Name
			pass := &framework.Pass{
				Analyzer:  a,
				Fset:      ld.Fset(),
				Files:     files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d framework.Diagnostic) {
					if !sups.Suppressed(name, ld.Fset(), d.Pos) {
						all = append(all, Finding{
							Check:   name,
							Pos:     ld.Fset().Position(d.Pos),
							Message: d.Message,
							Fixes:   d.Fixes,
						})
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return len(all), fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}

	// Audit the allow comments themselves, now that every selected
	// check has had its chance to use them.
	if hasCheck(selected, "allowaudit") {
		registered := make(map[string]bool)
		for _, a := range Analyzers() {
			registered[a.Name] = true
		}
		ran := make(map[string]bool)
		for _, a := range selected {
			ran[a.Name] = true
		}
		report := func(ps pkgSups, pos token.Pos, msg string, fixes []framework.SuggestedFix) {
			if ps.sups.Suppressed("allowaudit", ld.Fset(), pos) {
				return
			}
			all = append(all, Finding{
				Check:   "allowaudit",
				Pos:     ld.Fset().Position(pos),
				Message: msg,
				Fixes:   fixes,
			})
		}
		auditOne := func(ps pkgSups, s *config.Suppression) {
			if !registered[s.Check] {
				report(ps, s.Pos, fmt.Sprintf("//lint:allow names unknown check %q; registered checks: %s",
					s.Check, strings.Join(checkNames(), ", ")), nil)
				return
			}
			if ran[s.Check] && !s.Used {
				report(ps, s.Pos, fmt.Sprintf("stale //lint:allow %s: it suppresses no diagnostic; delete it", s.Check),
					[]framework.SuggestedFix{{
						Message: "delete the stale allow comment",
						Edits:   []framework.TextEdit{{Pos: s.Pos, End: s.End, NewText: ""}},
					}})
			}
		}
		// Meta-allows (//lint:allow allowaudit ...) absorb findings in
		// this first round, which keeps them from looking stale in the
		// second.
		for _, ps := range audited {
			for _, m := range ps.sups.Malformed() {
				report(ps, m.Pos, `malformed //lint:allow comment: need "//lint:allow <check> <reason>"`, nil)
			}
			for _, s := range ps.sups.All() {
				if s.Check != "allowaudit" {
					auditOne(ps, s)
				}
			}
		}
		for _, ps := range audited {
			for _, s := range ps.sups.All() {
				if s.Check == "allowaudit" {
					auditOne(ps, s)
				}
			}
		}
	}

	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})

	if opts.JSON {
		if err := writeJSON(out, dir, modPath, all); err != nil {
			return len(all), err
		}
	} else {
		for _, f := range all {
			fmt.Fprintf(out, "%s: %s [%s]\n", f.Pos, f.Message, f.Check)
		}
	}
	if opts.Fix {
		n, files, err := applyFixes(ld.Fset(), all)
		if err != nil {
			return len(all), err
		}
		fmt.Fprintf(out, "raidvet: applied %d suggested fix(es) in %d file(s)\n", n, files)
	}
	return len(all), nil
}

func checkNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

func hasCheck(as []*framework.Analyzer, name string) bool {
	for _, a := range as {
		if a.Name == name {
			return true
		}
	}
	return false
}

func selectAnalyzers(checks []string) ([]*framework.Analyzer, error) {
	if len(checks) == 0 {
		return Analyzers(), nil
	}
	byName := make(map[string]*framework.Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*framework.Analyzer
	for _, c := range checks {
		a, ok := byName[c]
		if !ok {
			return nil, fmt.Errorf("unknown check %q; registered checks: %s", c, strings.Join(checkNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// writeJSON renders the stable machine-readable schema: findings sorted
// as given, file paths module-relative with forward slashes, so the
// byte output is identical across machines and checkouts.
func writeJSON(out io.Writer, dir, modPath string, all []Finding) error {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	rep := jsonReport{Version: jsonSchemaVersion, Module: modPath, Findings: []jsonFinding{}}
	for _, f := range all {
		file := f.Pos.Filename
		if r, err := filepath.Rel(absDir, file); err == nil && !strings.HasPrefix(r, "..") {
			file = filepath.ToSlash(r)
		}
		rep.Findings = append(rep.Findings, jsonFinding{
			Check:   f.Check,
			File:    file,
			Line:    f.Pos.Line,
			Col:     f.Pos.Column,
			Message: f.Message,
			Fixable: len(f.Fixes) > 0,
		})
	}
	b, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = out.Write(b)
	return err
}

// applyFixes applies the first suggested fix of every finding that has
// one, editing each file back-to-front so earlier offsets stay valid.
// Overlapping edits are skipped (first in descending offset order
// wins); the source files are rewritten in place.
func applyFixes(fset *token.FileSet, all []Finding) (nEdits, nFiles int, err error) {
	type edit struct {
		start, end int
		text       string
	}
	byFile := make(map[string][]edit)
	for _, f := range all {
		if len(f.Fixes) == 0 {
			continue
		}
		for _, e := range f.Fixes[0].Edits {
			p := fset.Position(e.Pos)
			q := fset.Position(e.End)
			if p.Filename == "" || p.Filename != q.Filename || q.Offset < p.Offset {
				continue
			}
			byFile[p.Filename] = append(byFile[p.Filename], edit{p.Offset, q.Offset, e.NewText})
		}
	}
	var files []string
	for name := range byFile {
		files = append(files, name)
	}
	sort.Strings(files)
	for _, name := range files {
		src, rerr := os.ReadFile(name)
		if rerr != nil {
			return nEdits, nFiles, rerr
		}
		edits := byFile[name]
		sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
		prevStart := len(src) + 1
		applied := 0
		for _, e := range edits {
			if e.end > len(src) || e.end > prevStart {
				continue // out of range or overlapping a later edit
			}
			src = append(src[:e.start], append([]byte(e.text), src[e.end:]...)...)
			prevStart = e.start
			applied++
		}
		if applied > 0 {
			if werr := os.WriteFile(name, src, 0o644); werr != nil {
				return nEdits, nFiles, werr
			}
			nEdits += applied
			nFiles++
		}
	}
	return nEdits, nFiles, nil
}
