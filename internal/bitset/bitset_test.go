package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSetNext: Next walks the set in ascending order a word at a time,
// finds a member added above the cursor mid-walk, and skips one added below
// it; the count follows adds and removes.
func TestSetNext(t *testing.T) {
	var s Set[uint32]
	for _, i := range []uint32{200, 3, 64, 63, 3} {
		s.Add(i)
	}
	var got []uint32
	for i, ok := s.Next(0); ok; i, ok = s.Next(i + 1) {
		got = append(got, i)
		if i == 63 {
			s.Add(130) // above the cursor: visited
			s.Add(1)   // below it: left for the next walk
		}
		s.Remove(i)
	}
	if want := []uint32{3, 63, 64, 130, 200}; !slices.Equal(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	if s.Len() != 1 || !s.Has(1) {
		t.Fatalf("after the walk Len() = %d, Has(1) = %v; want 1, true", s.Len(), s.Has(1))
	}
}

// TestSetAgainstMap drives a set and a map through the same random adds,
// removes and resets over members that straddle word boundaries and end
// inside a last, partial word, and checks Has, Len, Next from every
// position, and All after each step.
func TestSetAgainstMap(t *testing.T) {
	for _, span := range []int{1, 63, 64, 65, 130, 200} {
		rng := rand.New(rand.NewSource(int64(span)))
		var s Set[int64]
		oracle := map[int64]bool{}
		for step := 0; step < 400; step++ {
			i := int64(rng.Intn(span))
			switch op := rng.Intn(10); {
			case op < 5:
				s.Add(i)
				oracle[i] = true
			case op < 9:
				s.Remove(i)
				delete(oracle, i)
			default:
				s = Set[int64]{}
				clear(oracle)
			}
			if s.Len() != len(oracle) {
				t.Fatalf("span %d step %d: Len() = %d, the map holds %d", span, step, s.Len(), len(oracle))
			}
			var want []int64
			for j := int64(0); j < int64(span)+64; j++ {
				if s.Has(j) != oracle[j] {
					t.Fatalf("span %d step %d: Has(%d) = %v", span, step, j, s.Has(j))
				}
				if oracle[j] {
					want = append(want, j)
				}
				got, ok := s.Next(j)
				wantNext, wantOK := int64(0), false
				for m := j; m < int64(span); m++ {
					if oracle[m] {
						wantNext, wantOK = m, true
						break
					}
				}
				if got != wantNext || ok != wantOK {
					t.Fatalf("span %d step %d: Next(%d) = %d, %v; want %d, %v", span, step, j, got, ok, wantNext, wantOK)
				}
			}
			if got := slices.Collect(s.All()); !slices.Equal(got, want) {
				t.Fatalf("span %d step %d: All() = %v, want %v", span, step, got, want)
			}
		}
	}
}
