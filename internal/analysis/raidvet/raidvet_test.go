package raidvet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raidii/internal/analysis/raidvet"
)

// fixtureDir is a tiny standalone module seeded with exactly one
// errdrop violation, one stale //lint:allow, one %v-formatted error and
// two early returns that leave a resource held (one unit, and n units).  Its own go.mod keeps it
// out of the repository's ./... so
// raidvet stays clean at top level while the driver still has a
// guaranteed-dirty target to test (and CI to assert a nonzero exit)
// against.
const fixtureDir = "testdata/vetmod"

// TestSeededViolationsJSON runs the full driver over the fixture and
// compares the -json rendering byte-for-byte against the committed
// golden file, so the machine-readable schema cannot drift silently.
func TestSeededViolationsJSON(t *testing.T) {
	var buf bytes.Buffer
	n, err := raidvet.RunOpts(raidvet.Options{Dir: fixtureDir, JSON: true, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("got %d findings, want 5:\n%s", n, buf.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "vetmod.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output drifted from the golden file:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestSeededViolationsText checks the plain-text entry point used by
// CI log output: one located line per finding, tagged with its check.
func TestSeededViolationsText(t *testing.T) {
	var buf bytes.Buffer
	n, err := raidvet.Run(fixtureDir, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("got %d findings, want 5:\n%s", n, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"[errdrop]", "[allowaudit]", "[wrapcheck]", "[pairbalance]", "vetmod.go:18:", "vetmod.go:21:", "vetmod.go:28:", "vetmod.go:44:", "vetmod.go:55:"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestChecksSubset restricts the run to errdrop: the stale allow is
// not audited (allowaudit was not selected), so only the dropped
// error remains.
func TestChecksSubset(t *testing.T) {
	var buf bytes.Buffer
	n, err := raidvet.RunOpts(raidvet.Options{Dir: fixtureDir, Checks: []string{"errdrop"}, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !strings.Contains(buf.String(), "[errdrop]") {
		t.Fatalf("got %d findings, want the lone errdrop:\n%s", n, buf.String())
	}
}

// TestUnknownCheck asserts a helpful error for a bad -checks value.
func TestUnknownCheck(t *testing.T) {
	_, err := raidvet.RunOpts(raidvet.Options{Dir: fixtureDir, Checks: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), `unknown check "nope"`) {
		t.Fatalf("got %v, want unknown-check error", err)
	}
}

// TestFixPipeline copies the fixture into a scratch module and runs
// the driver with Fix on: the stale allow's suggested deletion and the
// %v → %w rewrite must be applied, so a second run sees only the
// (unfixable) dropped error and held resources.
func TestFixPipeline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"go.mod", "vetmod.go"} {
		src, err := os.ReadFile(filepath.Join(fixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := raidvet.RunOpts(raidvet.Options{Dir: dir, Fix: true}); err != nil || n != 5 {
		t.Fatalf("fix run: n=%d err=%v, want 5 findings", n, err)
	}
	var buf bytes.Buffer
	n, err := raidvet.Run(dir, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || !strings.Contains(buf.String(), "[errdrop]") || strings.Count(buf.String(), "[pairbalance]") != 2 {
		t.Fatalf("after -fix got %d findings, want only the errdrop and the two pairbalance left:\n%s", n, buf.String())
	}
}
