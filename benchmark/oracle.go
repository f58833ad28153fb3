package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// The oracle is the seeded generator every byte the benchmark writes comes
// from, and the record of what each file must therefore contain.
//
// All data are slices of one pseudo-random tape drawn from the seed, cut at
// 4 KB block boundaries.  Cutting from a tape keeps data generation out of
// the timed phase (a write hands the machine a slice; LFS copies it) and
// keeps the benchmark's own heap small, so the garbage collector's pacing
// is set by the simulator's allocations and not by a shadow copy of the
// files.  What a file must contain is kept as one CRC-32 per 4 KB block.

const (
	blockSize  = 4096
	tapeBlocks = 2048 // 8 MB: longer than the largest request (one 2,880 KB cluster stripe)
)

type oracle struct {
	tape    []byte
	tapeCRC []uint32            // CRC-32 of each tape block
	files   map[string][]uint32 // expected CRC-32 of each 4 KB block, per file
}

func newOracle(seed int64) *oracle {
	o := &oracle{
		tape:    make([]byte, tapeBlocks*blockSize),
		tapeCRC: make([]uint32, tapeBlocks),
		files:   map[string][]uint32{},
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < len(o.tape); i += 8 {
		binary.LittleEndian.PutUint64(o.tape[i:], rng.Uint64())
	}
	for i := range o.tapeCRC {
		o.tapeCRC[i] = crc32.ChecksumIEEE(o.tape[i*blockSize : (i+1)*blockSize])
	}
	return o
}

// cut returns n bytes of tape (n a whole number of blocks) starting at a
// block drawn from rng.
func (o *oracle) cut(rng *rand.Rand, n int) []byte {
	first := rng.Intn(tapeBlocks - n/blockSize + 1)
	return o.tape[first*blockSize : first*blockSize+n]
}

// wrote records that data, a slice cut from the tape, now sits at the
// block-aligned offset off of the named file.
func (o *oracle) wrote(file string, off int64, data []byte) {
	first := int(off / blockSize)
	n := len(data) / blockSize
	crcs := o.files[file]
	for len(crcs) < first+n {
		crcs = append(crcs, 0)
	}
	// data aliases the tape, so its block CRCs are already known.
	tapeFirst := (cap(o.tape) - cap(data)) / blockSize
	copy(crcs[first:first+n], o.tapeCRC[tapeFirst:tapeFirst+n])
	o.files[file] = crcs
}

// check compares bytes read from the block-aligned offset off of the named
// file against what was written there, block by block.
func (o *oracle) check(file string, off int64, got []byte, want int) error {
	if len(got) != want {
		return fmt.Errorf("%s@%d: read %d bytes, want %d", file, off, len(got), want)
	}
	crcs := o.files[file]
	first := int(off / blockSize)
	for i := 0; i*blockSize < len(got); i++ {
		if first+i >= len(crcs) {
			return fmt.Errorf("%s@%d: read past the %d blocks written", file, off, len(crcs))
		}
		if sum := crc32.ChecksumIEEE(got[i*blockSize : (i+1)*blockSize]); sum != crcs[first+i] {
			return fmt.Errorf("%s@%d: block %d has CRC %08x, want %08x", file, off, first+i, sum, crcs[first+i])
		}
	}
	return nil
}

// size returns the bytes recorded for the named file.
func (o *oracle) size(file string) int64 { return int64(len(o.files[file])) * blockSize }
