// Package vetmod is a seeded-violation fixture: raidvet must report
// its planted findings and exit nonzero.  The driver test asserts the
// exact JSON rendering and CI asserts the exit status, so this file
// must keep exactly one errdrop violation, one stale allow, one %v error
// (wrapcheck covers the module root) and two early returns holding a Server.
package vetmod

import (
	"errors"
	"fmt"
)

// Touch returns a fresh error so Drop below has something to discard.
func Touch() error { return errors.New("vetmod: touched") }

// Drop discards Touch's error: the seeded errdrop violation.
func Drop() {
	Touch()
}

//lint:allow detrand this allow is deliberately stale
var one = 1

// One keeps the variable above referenced.
func One() int { return one }

// Mask formats Touch's error with %v: the seeded wrapcheck violation.
func Mask() error { return fmt.Errorf("vetmod: mask: %v", Touch()) }

// Proc and Server stand in for internal/sim's; pairbalance matches them by
// type name.
type Proc struct{}
type Server struct{}

func (s *Server) Acquire(p *Proc)         {}
func (s *Server) AcquireN(p *Proc, n int) {}
func (s *Server) Release()                {}
func (s *Server) ReleaseN(n int)          {}

// Hold returns early with s still held: the seeded pairbalance violation.
func Hold(s *Server, p *Proc, fail bool) error {
	s.Acquire(p)
	if fail {
		return Touch()
	}
	s.Release()
	return nil
}

// Stage returns early with n units of s still held: the seeded n-unit
// pairbalance violation.
func Stage(s *Server, p *Proc, n int, fail bool) error {
	s.AcquireN(p, n)
	if fail {
		return Touch()
	}
	s.ReleaseN(n)
	return nil
}
