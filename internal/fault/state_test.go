package fault

import "testing"

// FuzzLatent holds Latent to a per-sector oracle: each sector of a small
// device keeps the lowest command count from which some run covering it is
// armed, Add lowers it, Clear forgets it, and First must name the lowest
// sector of its range armed at its count.  Each op is four bytes: kind
// (Add, Clear, First), first sector, sector count less one, command count.
// After every op every sector is checked alone as well.
func FuzzLatent(f *testing.F) {
	const (
		sectors = 128
		never   = ^uint64(0)
	)
	op := func(kind, lba, n, ops byte) []byte { return []byte{kind, lba, n - 1, ops} }
	// The split: a write strictly inside [10,20) must leave [100,110) armed.
	f.Add(append(append(append(op(0, 10, 10, 0), op(0, 100, 10, 0)...), op(1, 15, 1, 0)...), op(2, 100, 1, 0)...))
	// Overlapping runs with different arming counts, then a partial clear.
	f.Add(append(append(append(op(0, 0, 16, 3), op(0, 8, 16, 1)...), op(1, 4, 8, 0)...), op(2, 0, 32, 2)...))
	f.Fuzz(func(t *testing.T, script []byte) {
		var l Latent
		var armed [sectors]uint64
		for i := range armed {
			armed[i] = never
		}
		first := func(lba int64, n int, ops uint64) (int64, bool) {
			for s := lba; s < lba+int64(n); s++ {
				if armed[s] <= ops {
					return s, true
				}
			}
			return lba + int64(n), false
		}
		for ; len(script) >= 4; script = script[4:] {
			lba := int64(script[1]) % sectors
			n := min(int(script[2])%16+1, sectors-int(lba))
			ops := uint64(script[3] % 4)
			switch script[0] % 3 {
			case 0:
				l.Add(lba, n, ops)
				for s := lba; s < lba+int64(n); s++ {
					armed[s] = min(armed[s], ops)
				}
			case 1:
				l.Clear(lba, n)
				for s := lba; s < lba+int64(n); s++ {
					armed[s] = never
				}
			case 2:
				gotS, gotOK := l.First(lba, n, ops)
				wantS, wantOK := first(lba, n, ops)
				if gotOK != wantOK || (gotOK && gotS != wantS) {
					t.Fatalf("First(%d, %d, %d) = %d, %v; want %d, %v", lba, n, ops, gotS, gotOK, wantS, wantOK)
				}
			}
			for s := int64(0); s < sectors; s++ {
				_, got := l.First(s, 1, ops)
				if _, want := first(s, 1, ops); got != want {
					t.Fatalf("sector %d at %d commands: bad = %v, want %v", s, ops, got, want)
				}
			}
		}
	})
}
