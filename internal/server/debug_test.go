package server

import (
	"fmt"
	"math/rand"
	"testing"

	"raidii/internal/sim"
	"raidii/internal/trace"
	"raidii/internal/workload"
)

func TestArraySequentialDiagnostics(t *testing.T) {
	// Pure array sequential read, no HIPPI: with four request streams the
	// SCSI strings should run near saturation, matching Table 1's ceiling.
	cfg := DefaultConfig()
	cfg.FifthCougar = true
	sys, _ := New(cfg)
	b := sys.Boards[0]
	rec := trace.Attach(sys.Eng, trace.Config{})
	var cursor int64
	res, err := workload.FixedOps(sys.Eng, 4, 48, func(p *sim.Proc, _ int, _ *rand.Rand) (int, error) {
		const req = 1600 << 10
		_, err := b.Array.Read(p, cursor, req/512)
		cursor += int64(req / 512)
		return req, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.MBps(); r < 27 || r > 33 {
		t.Errorf("pure array sequential read = %.1f MB/s, want ~30", r)
	}
	fmt.Printf("array seq read: %.1f MB/s\n", res.MBps())
	for i, v := range b.XB.VME {
		fmt.Printf("vme%d moved %d\n", i, v.BytesMoved())
	}
	fmt.Printf("hostport moved %d\n", b.XB.Host.BytesMoved())
	fmt.Printf("disk0 stats: %+v\n", b.Disks[0].Drive.Stats())
	fmt.Print(rec.Table(8))
}
