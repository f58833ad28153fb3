// Package config holds raidvet's policy layer: which packages each
// check applies to, and the "//lint:allow <check> <reason>" comment
// syntax that suppresses an individual diagnostic.  Analyzers stay pure
// (they flag every occurrence); scoping and suppression are applied by
// the driver and the test harness.
package config

import (
	"go/ast"
	"go/token"
	"strings"
)

// Scope restricts a check to a subset of the module's packages,
// identified by their slash-separated path relative to the module root
// (the root package itself is "").  An entry matches a path that equals
// it or that it is a path-prefix of ("internal" matches "internal/sim").
// The special entry "." matches only the module root package, which an
// empty string cannot express (an empty Include means "everything").
type Scope struct {
	// Include lists path prefixes the check applies to; empty means
	// the whole module.
	Include []string
	// Exclude lists path prefixes exempted from the check; it wins
	// over Include.
	Exclude []string
}

func matchPrefix(rel, entry string) bool {
	if entry == "" {
		return true
	}
	if entry == "." {
		return rel == ""
	}
	return rel == entry || strings.HasPrefix(rel, entry+"/")
}

// Applies reports whether a package at rel (module-relative path) is in
// scope.
func (s Scope) Applies(rel string) bool {
	for _, e := range s.Exclude {
		if matchPrefix(rel, e) {
			return false
		}
	}
	if len(s.Include) == 0 {
		return true
	}
	for _, e := range s.Include {
		if matchPrefix(rel, e) {
			return true
		}
	}
	return false
}

// DefaultScopes is the repository policy, one entry per check:
//
//   - simtime applies everywhere except examples/ (demo programs print
//     wall-clock progress); cmd/raidbench's single legitimate use is
//     suppressed inline so the exemption list stays minimal.
//   - detrand applies to library and experiment code; command-line
//     front-ends and examples may jitter freely.
//   - rawgo applies everywhere, internal/sim included: the engine
//     switches processes as coroutines and starts no goroutine itself.
//   - maporder applies everywhere: a map-ordered event timeline is a
//     bug wherever it occurs.
//   - simpanic applies to internal/ library code and to the module
//     root, whose experiment runners return every failure through the
//     harness's error path; main packages may panic on programmer
//     error.
//   - errdrop applies everywhere: a silently swallowed error masks a
//     fault wherever it occurs, examples and commands included.
//   - wrapcheck reports at the internal/server → raidii API boundary
//     (internal/server and the module root) and across the Cluster
//     boundary (internal/zebra, whose striped-store errors surface
//     through ClusterTask/ClusterFile), where an unwrapped error breaks
//     errors.Is against re-exported sentinels.
//   - pairbalance (no way out of a block between a pair's open and its
//     close) applies to non-test code; tests unbalance resources on purpose.
//   - allowaudit is driver-level (it polices the allow comments
//     themselves) and applies everywhere.
func DefaultScopes() map[string]Scope {
	return map[string]Scope{
		"simtime":     {Exclude: []string{"examples"}},
		"detrand":     {Exclude: []string{"cmd", "examples"}},
		"rawgo":       {},
		"maporder":    {},
		"simpanic":    {Include: []string{".", "internal"}},
		"errdrop":     {},
		"wrapcheck":   {Include: []string{".", "internal/server", "internal/zebra"}},
		"pairbalance": {},
		"allowaudit":  {},
	}
}

// RelPath converts an import path to its module-relative form, e.g.
// ("raidii", "raidii/internal/sim") -> "internal/sim".  The module root
// package maps to "".  Import paths outside the module are returned
// unchanged (fixture packages in tests have bare paths like "a").
func RelPath(modPath, importPath string) string {
	if importPath == modPath {
		return ""
	}
	if strings.HasPrefix(importPath, modPath+"/") {
		return importPath[len(modPath)+1:]
	}
	return importPath
}

// allowPrefix introduces a suppression comment.
const allowPrefix = "//lint:allow"

// Suppression is one parsed //lint:allow comment.
type Suppression struct {
	Check  string
	Reason string
	Line   int // line the comment ends on
	File   string
	Pos    token.Pos // start of the comment token
	End    token.Pos // end of the comment token

	// Used records whether the suppression absorbed at least one live
	// diagnostic during the run; the allowaudit check reports unused
	// suppressions so allows cannot rot.
	Used bool
}

// Suppressions indexes //lint:allow comments by file and line.
type Suppressions struct {
	all        []*Suppression
	byFileLine map[string]map[int][]*Suppression
	malformed  []*Suppression // missing check name or reason
}

// CollectSuppressions parses every //lint:allow comment in files.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{byFileLine: make(map[string]map[int][]*Suppression)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				rest = strings.TrimSpace(rest)
				pos := fset.Position(c.End())
				fields := strings.Fields(rest)
				sup := &Suppression{File: pos.Filename, Line: pos.Line, Pos: c.Pos(), End: c.End()}
				if len(fields) > 0 {
					sup.Check = fields[0]
				}
				if len(fields) > 1 {
					sup.Reason = strings.Join(fields[1:], " ")
				}
				if sup.Check == "" || sup.Reason == "" {
					s.malformed = append(s.malformed, sup)
					continue
				}
				s.all = append(s.all, sup)
				byLine := s.byFileLine[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*Suppression)
					s.byFileLine[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], sup)
			}
		}
	}
	return s
}

// Malformed returns //lint:allow comments lacking a check name or a
// reason; the driver reports these as diagnostics of their own, so
// undocumented suppressions cannot accumulate.
func (s *Suppressions) Malformed() []*Suppression { return s.malformed }

// All returns every well-formed suppression, in file order.
func (s *Suppressions) All() []*Suppression { return s.all }

// Suppressed reports whether a diagnostic of the named check at pos is
// covered by an allow comment on the same line or the line directly
// above (a trailing comment or a standalone one, respectively), and
// marks any covering suppression as used.
func (s *Suppressions) Suppressed(check string, fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	byLine := s.byFileLine[p.Filename]
	if byLine == nil {
		return false
	}
	hit := false
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, sup := range byLine[line] {
			if sup.Check == check {
				sup.Used = true
				hit = true
			}
		}
	}
	return hit
}
