// Fixture for the pairbalance analyzer: the pair-bearing types mirror
// internal/sim/resources.go (matched by type name), and the functions
// exercise leaks out of a statement list between a pair's open and its
// close, balanced shapes, handoffs and suppression.
package a

import "errors"

type Proc struct{}

func (p *Proc) Span(cat, name string) func() { return func() {} }

type Server struct{}

func (s *Server) Acquire(p *Proc)         {}
func (s *Server) AcquireN(p *Proc, n int) {}
func (s *Server) TryAcquire() bool        { return true }
func (s *Server) Release()                {}
func (s *Server) ReleaseN(n int)          {}

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

// Each path releases by hand, and that is a finding: the rule does not look
// into a branch for a release, so it accepts only the shapes that survive a
// new early return — one release after the branches, or a defer.
func balancedBranches(h *holder, p *Proc) error {
	h.mu.Acquire(p)
	if cond() {
		h.mu.Release()
		return errNope // want `h\.mu \(Server\) is still held on this return path`
	}
	h.mu.Release()
	return nil
}

// The defer comes after an early return.
func deferAfterReturn(h *holder, p *Proc) error {
	h.mu.Acquire(p)
	if cond() {
		return errNope // want `h\.mu \(Server\) is still held on this return path`
	}
	defer h.mu.Release()
	return nil
}

// continue skips the release at the bottom of the loop body.
func continueSkipsRelease(tk *Server, p *Proc) {
	for i := 0; i < 4; i++ {
		tk.AcquireN(p, 1)
		if cond() {
			continue // want `tk \(Server\) is still held on this continue path`
		}
		tk.ReleaseN(1)
	}
}

// Not a finding: each break ends an inner loop or switch, and the release
// still runs.
func innerBreak(h *holder, p *Proc) {
	h.mu.Acquire(p)
	for i := 0; i < 4; i++ {
		if cond() {
			break
		}
	}
	switch {
	case cond():
		break
	}
	h.mu.Release()
}

// A labeled break leaves the list whichever statement it names.
func labeledBreak(h *holder, p *Proc) {
outer:
	for i := 0; i < 4; i++ {
		h.mu.Acquire(p)
		for j := 0; j < 4; j++ {
			if cond() {
				break outer // want `h\.mu \(Server\) is still held on this break path`
			}
		}
		h.mu.Release()
	}
}

// A case clause is a list of its own.
func spanInCase(p *Proc, k int) error {
	switch k {
	case 1:
		end := p.Span("fixture", "case")
		if cond() {
			return errNope // want `span closer end is not called on this return path`
		}
		end()
	}
	return nil
}

// Not a finding: released only in a nested block, so the list that opens
// never closes — a handoff, untracked.
func nestedRelease(h *holder, p *Proc) error {
	h.mu.Acquire(p)
	if cond() {
		return errNope
	}
	if cond() {
		h.mu.Release()
	}
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

// The release runs in a closure on another schedule: untracked.
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

// Returning the closer hands it to the caller: untracked.
func spanEscapes(p *Proc) func() {
	end := p.Span("fixture", "work")
	if cond() {
		end()
		return nil
	}
	return end
}

// A panic path is not a leak — the process is gone.
func panicPath(tk *Server, p *Proc) {
	tk.AcquireN(p, 8)
	if cond() {
		panic("invariant")
	}
	tk.ReleaseN(8)
}

// Acquires in one loop, releases in a second: untracked.
func loopSplit(tk *Server, p *Proc) {
	for i := 0; i < 4; i++ {
		tk.AcquireN(p, 1)
	}
	for i := 0; i < 4; i++ {
		tk.ReleaseN(1)
	}
}

// A return inside a function literal is the literal's, not the list's.
func literalReturn(h *holder, p *Proc) {
	h.mu.Acquire(p)
	spawn(func() {
		if cond() {
			return
		}
	})
	h.mu.Release()
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
