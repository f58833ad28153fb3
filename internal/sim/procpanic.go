package sim

import "fmt"

// ProcPanic is what a panic in model code arrives as in the goroutine that
// called Run, RunUntil or Step.  The coroutine transport re-raises a process's
// panic in the engine's caller, by which time the process's stack is gone; the
// engine therefore captures the process and its stack at the point of
// recovery, before the coroutine unwinds.  Because the panic arrives in Run's
// caller, a test can recover it and assert on an invariant's message instead
// of crashing the binary.
type ProcPanic struct {
	Proc  string // name given at Spawn
	ID    uint64 // Proc.ID
	Value any    // the original panic value
	Stack []byte // debug.Stack() of the panicking process
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: panic in process %q (id %d): %v\n\n%s", pp.Proc, pp.ID, pp.Value, pp.Stack)
}

func (pp *ProcPanic) String() string { return pp.Error() }

// Unwrap exposes Value to errors.Is/As when the process panicked with an error.
func (pp *ProcPanic) Unwrap() error {
	err, _ := pp.Value.(error)
	return err
}
