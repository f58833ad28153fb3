// Command raidvet runs the repository's static-verification suite over
// the named packages (default ./...).  It exits nonzero if any check
// fires, so it slots directly into CI next to go vet.
//
// Usage:
//
//	raidvet [-json] [-fix] [-checks c1,c2] [packages]
//
// Checks: simtime (no wall-clock time), detrand (no global math/rand),
// rawgo (no go statements, the engine included), maporder (no sim calls
// under range-over-map), simpanic (no panics in internal library code),
// errdrop (no discarded error results), wrapcheck (%w wrapping at the
// API boundary so errors.Is sees re-exported sentinels), pairbalance
// (a block that opens and closes an Acquire/Release or Span pair is not
// left in between), allowaudit (every //lint:allow names a registered check, carries a
// reason, and suppresses a live diagnostic).
//
// Individual lines are exempted with "//lint:allow <check> <reason>".
// -json emits the stable machine-readable diagnostics schema; -fix
// applies the suggested fixes analyzers attach to mechanical findings
// (rewriting %v to %w, deleting stale allows); -checks restricts the
// run to a comma-separated subset of the suite.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"raidii/internal/analysis/raidvet"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as machine-readable JSON")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var selected []string
	if *checks != "" {
		for _, c := range strings.Split(*checks, ",") {
			if c = strings.TrimSpace(c); c != "" {
				selected = append(selected, c)
			}
		}
	}
	n, err := raidvet.RunOpts(raidvet.Options{
		Dir:      ".",
		Patterns: patterns,
		Checks:   selected,
		JSON:     *jsonOut,
		Fix:      *fix,
		Out:      os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "raidvet: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "raidvet: %d finding(s)\n", n)
		os.Exit(1)
	}
}
