package raid

import (
	"fmt"

	"raidii/internal/fault"
	"raidii/internal/sim"
)

// MemDev is a functional block device that charges no simulated time: the
// workhorse for correctness tests of the array and file system logic, and
// the degenerate "infinitely fast disk" configuration for ablations.
type MemDev struct {
	secSize int
	sectors int64
	data    []byte
	failed  bool
	latent  fault.Latent // for tests of the medium-error escalation path
}

// NewMemDev creates a zero-filled in-memory device.
func NewMemDev(sectors int64, secSize int) *MemDev {
	return &MemDev{secSize: secSize, sectors: sectors, data: make([]byte, sectors*int64(secSize))}
}

// Read returns a copy of the requested sectors.
func (m *MemDev) Read(p *sim.Proc, lba int64, n int) ([]byte, error) {
	out := make([]byte, n*m.secSize)
	if err := m.ReadInto(p, lba, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto copies the sectors at lba into the caller's dst.
func (m *MemDev) ReadInto(_ *sim.Proc, lba int64, dst []byte) error {
	if m.failed {
		return fmt.Errorf("memdev: %w", fault.ErrDiskFailed)
	}
	if bad, ok := m.latent.First(lba, len(dst)/m.secSize, 0); ok {
		return fmt.Errorf("memdev: sector %d: %w", bad, fault.ErrMedium)
	}
	copy(dst, m.data[lba*int64(m.secSize):])
	return nil
}

// Write stores data at lba.  Writing over a bad sector remaps it and clears
// the latent error, mirroring the real drive's behavior.
func (m *MemDev) Write(_ *sim.Proc, lba int64, data []byte) error {
	if len(data)%m.secSize != 0 {
		//lint:allow simpanic misaligned buffer is caller corruption; mirrors the real disk path's contract
		panic("raid: memdev write not sector aligned")
	}
	if m.failed {
		return fmt.Errorf("memdev: %w", fault.ErrDiskFailed)
	}
	m.latent.Clear(lba, len(data)/m.secSize)
	copy(m.data[lba*int64(m.secSize):], data)
	return nil
}

// Sectors returns the device size in sectors.
func (m *MemDev) Sectors() int64 { return m.sectors }

// SectorSize returns the sector size.
func (m *MemDev) SectorSize() int { return m.secSize }

// Corrupt flips a byte, for failure-injection tests.
func (m *MemDev) Corrupt(off int64) { m.data[off] ^= 0xff }

// Fail makes every subsequent command return fault.ErrDiskFailed.
func (m *MemDev) Fail() { m.failed = true }

// AddLatentError marks sectors [lba, lba+n) unreadable until overwritten.
func (m *MemDev) AddLatentError(lba int64, n int) { m.latent.Add(lba, n, 0) }
