// Fixture for the pairbalance analyzer: the pair-bearing types mirror
// internal/sim/resources.go (matched by type name), and the functions
// exercise definite leaks, balanced paths, handoffs, escapes and
// suppression.
package a

import "errors"

type Proc struct{}

func (p *Proc) Span(cat, name string) func() { return func() {} }

type Server struct{}

func (s *Server) Acquire(p *Proc)  {}
func (s *Server) TryAcquire() bool { return true }
func (s *Server) Release()         {}

type Tokens struct{}

func (tk *Tokens) Acquire(p *Proc, n int) {}
func (tk *Tokens) Reserve(n int) error    { return nil }
func (tk *Tokens) Release(n int)          {}

type holder struct {
	mu *Server
}

var errNope = errors.New("nope")

func cond() bool { return true }

func spawn(fn func()) { fn() }

// The early error return leaks the server.
func leakEarlyReturn(h *holder, p *Proc) error {
	h.mu.Acquire(p)
	if cond() {
		return errNope // want `h\.mu \(Server\) is still held on this return path`
	}
	h.mu.Release()
	return nil
}

// A deferred release covers every path.
func balancedDefer(h *holder, p *Proc) error {
	h.mu.Acquire(p)
	defer h.mu.Release()
	if cond() {
		return errNope
	}
	return nil
}

// Each path releases by hand.
func balancedBranches(h *holder, p *Proc) error {
	h.mu.Acquire(p)
	if cond() {
		h.mu.Release()
		return errNope
	}
	h.mu.Release()
	return nil
}

// Acquire-only: ownership is handed to the caller, not tracked.
func admit(h *holder, p *Proc) {
	h.mu.Acquire(p)
}

// Release-only: ownership came from the caller, not tracked.
func finish(h *holder) {
	h.mu.Release()
}

// The release escapes into a closure running on another schedule;
// intra-function counting would be wrong, so the key is untracked.
func handoff(h *holder, p *Proc) {
	h.mu.Acquire(p)
	spawn(func() { h.mu.Release() })
}

// TryAcquire is data-dependent and ignored.
func try(h *holder) {
	if h.mu.TryAcquire() {
		h.mu.Release()
	}
}

// The span closer is skipped on the early return.
func spanLeak(p *Proc) error {
	end := p.Span("fixture", "work")
	if cond() {
		return errNope // want `span closer end is not called on this return path`
	}
	end()
	return nil
}

// Deferred closer covers every path.
func spanDefer(p *Proc) error {
	end := p.Span("fixture", "work")
	defer end()
	if cond() {
		return errNope
	}
	return nil
}

// Returning the closer hands it to the caller: untracked even though
// another path calls it.
func spanEscapes(p *Proc) func() {
	end := p.Span("fixture", "work")
	if cond() {
		end()
		return nil
	}
	return end
}

// A panic path is not a leak — the process is gone.
func panicPath(tk *Tokens, p *Proc) {
	tk.Acquire(p, 8)
	if cond() {
		panic("invariant")
	}
	tk.Release(8)
}

// Acquires in one loop, releases in a second: min-merge keeps the loop
// bodies net-zero, so no leak is reported.
func loopSplit(tk *Tokens, p *Proc) {
	for i := 0; i < 4; i++ {
		tk.Acquire(p, 1)
	}
	for i := 0; i < 4; i++ {
		tk.Release(1)
	}
}

// Suppression carries the leak with a documented reason.
func allowedLeak(h *holder, p *Proc) error {
	h.mu.Acquire(p)
	if cond() {
		return errNope //lint:allow pairbalance fixture exercises suppression
	}
	h.mu.Release()
	return nil
}
