// Package bitset is the one set type the array and the file system keep
// their states in: a bitmap with a count, walked in ascending order a word
// at a time, so a sparse walk costs its words, not a test of every member.
package bitset

import (
	"iter"
	"math/bits"
)

// Set is a set of non-negative numbers: devices, stripes, segments, inodes.
// The zero value is empty; the bitmap grows to the largest member added.
type Set[T ~int | ~int64 | ~uint32] struct {
	words []uint64
	n     int
}

// Has reports whether i is a member.
func (s *Set[T]) Has(i T) bool {
	w := uint64(i) / 64
	return w < uint64(len(s.words)) && s.words[w]&(1<<(uint64(i)%64)) != 0
}

// Add makes i a member.
func (s *Set[T]) Add(i T) {
	if s.Has(i) {
		return
	}
	if w := int(uint64(i) / 64); w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[uint64(i)/64] |= 1 << (uint64(i) % 64)
	s.n++
}

// Remove makes i not a member.
func (s *Set[T]) Remove(i T) {
	if s.Has(i) {
		s.words[uint64(i)/64] &^= 1 << (uint64(i) % 64)
		s.n--
	}
}

// Len returns the number of members.
func (s *Set[T]) Len() int { return s.n }

// Next returns the smallest member not below i.
func (s *Set[T]) Next(i T) (T, bool) {
	for w := uint64(i) / 64; s.n > 0 && w < uint64(len(s.words)); w, i = w+1, 0 {
		if word := s.words[w] >> (uint64(i) % 64) << (uint64(i) % 64); word != 0 {
			return T(w*64 + uint64(bits.TrailingZeros64(word))), true
		}
	}
	return 0, false
}

// All walks the members in ascending order, reading the set as it goes: a
// member added above the last one yielded is visited, one added below is not.
func (s *Set[T]) All() iter.Seq[T] {
	return func(yield func(T) bool) {
		for i, ok := s.Next(0); ok && yield(i); i, ok = s.Next(i + 1) {
		}
	}
}
