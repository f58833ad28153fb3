// Fixture package a: every fmt.Errorf that formats an error-typed
// argument with a verb other than %w is a finding, wherever the error
// came from; %w, non-error arguments and allowed lines are silent.
package a

import (
	"errors"
	"fmt"
)

// ErrGone is a sentinel built with errors.New.
var ErrGone = errors.New("gone")

// ErrBusy is a sentinel built with fmt.Errorf.
var ErrBusy = fmt.Errorf("busy")

// ErrAlias re-exports ErrGone.
var ErrAlias = ErrGone

// Fetch returns a sentinel directly.
func Fetch() error { return ErrGone }

// Wrapped keeps the chain alive with %w.
func Wrapped() error { return fmt.Errorf("fetch: %w", ErrGone) }

// Chained reaches the sentinel through a local variable.
func Chained() error {
	err := Fetch()
	return fmt.Errorf("chained: %w", err)
}

// Masked severs the chain; the fix rewrites %v to %w.
func Masked() error {
	return fmt.Errorf("masked: %v", ErrGone) // want `formatted with %v, not %w`
}

// The %v wrap of an error held in a local loses the sentinel.
func lose() error {
	err := Fetch()
	if err != nil {
		return fmt.Errorf("lose: %v", err) // want `formatted with %v, not %w`
	}
	return nil
}

// Direct re-exported sentinel under %s.
func direct() error {
	return fmt.Errorf("direct: %s", ErrAlias) // want `formatted with %s, not %w`
}

// An error argument of unknown origin flags all the same.
func anonymous(err error) error {
	return fmt.Errorf("anonymous: %v", err) // want `formatted with %v, not %w; errors\.Is cannot match`
}

// %w keeps the chain: no finding.
func keep() error {
	return fmt.Errorf("keep: %w", Fetch())
}

// Non-error arguments are never flagged.
func plain(n int) error {
	return fmt.Errorf("plain: %d of %s", n, "things")
}

// Suppressed with a documented reason.
func allowed() error {
	return fmt.Errorf("allowed: %v", Fetch()) //lint:allow wrapcheck fixture exercises suppression
}

// A format whose verbs cannot be paired with the arguments is reported
// when an error is among them, not waved through.
func indexed(err error) error {
	return fmt.Errorf("indexed: %[1]v", err) // want `cannot pair verbs with arguments`
}

func starWidth(n int, err error) error {
	return fmt.Errorf("star: %*d %v", n, 7, err) // want `cannot pair verbs with arguments`
}

func computed(format string, err error) error {
	return fmt.Errorf(format, err) // want `cannot pair verbs with arguments`
}

// No error among the arguments: nothing to check, nothing reported.
func computedPlain(format string, n int) error {
	return fmt.Errorf(format, n)
}
