// Quickstart: assemble the paper's RAID-II server, create a file system,
// store a file over the high-bandwidth path and read it back, then print
// what the simulated hardware delivered.
package main

import (
	"fmt"
	"log"

	"raidii"
)

func main() {
	// The default assembly is the machine measured in the paper: one XBUS
	// crossbar board, four Cougar disk controllers, 24 IBM 0661 drives as a
	// single RAID Level 5 group with 64 KB striping, LFS on top.
	srv, err := raidii.NewServer()
	if err != nil {
		log.Fatal(err)
	}

	const fileSize = 16 << 20
	_, err = srv.Simulate(func(t *raidii.Task) error {
		if err := t.FormatFS(); err != nil {
			return err
		}
		fmt.Printf("array capacity: %.1f GB\n", float64(t.Board(0).ArrayCapacity())/1e9)

		if err := t.Board(0).Mkdir("/data"); err != nil {
			return err
		}
		f, err := t.Board(0).Create("/data/dataset.raw")
		if err != nil {
			return err
		}

		// Write 16 MB through the LFS write path: the log batches it into
		// 960 KB segments that hit the array as full stripes.
		buf := make([]byte, 1<<20)
		start := t.Elapsed()
		for off := int64(0); off < fileSize; off += int64(len(buf)) {
			if _, err := f.Write(off, buf); err != nil {
				return err
			}
		}
		if err := t.Sync(); err != nil {
			return err
		}
		wDur := t.Elapsed() - start
		fmt.Printf("write %d MB: %v  (%.1f MB/s)\n",
			fileSize>>20, wDur, float64(fileSize)/wDur.Seconds()/1e6)

		// Read it back over the high-bandwidth path: array -> XBUS memory
		// -> HIPPI network buffers, pipelined.
		_, rDur, err := f.Read(0, fileSize)
		if err != nil {
			return err
		}
		fmt.Printf("read  %d MB: %v  (%.1f MB/s)\n",
			fileSize>>20, rDur, float64(fileSize)/rDur.Seconds()/1e6)

		// The same read over the low-bandwidth standard mode (host memory
		// and Ethernet) shows why the XBUS data path exists.
		eDur, err := f.ReadEthernet(0, 2<<20)
		if err != nil {
			return err
		}
		fmt.Printf("read 2 MB via Ethernet path: %v  (%.2f MB/s)\n",
			eDur, float64(2<<20)/eDur.Seconds()/1e6)

		ents, err := t.Board(0).ReadDir("/data")
		if err != nil {
			return err
		}
		for _, e := range ents {
			fi, err := t.Board(0).Stat("/data/" + e.Name)
			if err != nil {
				return err
			}
			fmt.Printf("  /data/%s  %d bytes\n", e.Name, fi.Size)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total simulated time: %v\n", srv.Now())
}
