package wrapcheck_test

import (
	"testing"

	"raidii/internal/analysis/analysistest"
	"raidii/internal/analysis/wrapcheck"
)

func TestWrapcheck(t *testing.T) {
	analysistest.Run(t, "testdata", wrapcheck.Analyzer, "a")
}
