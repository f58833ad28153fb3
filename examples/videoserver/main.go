// Videoserver reproduces the planned use of §5.1: "As part of the Gigabit
// Test Bed project ... RAID-II will act as a high-bandwidth video storage
// and playback server.  Data collected from an electron microscope at LBL
// will be sent from a video digitizer across an extended HIPPI network for
// storage on RAID-II."
//
// The program ingests a digitizer stream onto the array, then plays
// concurrent video streams back at a fixed bit rate and reports how many
// simultaneous viewers the server sustains without missing frame deadlines.
package main

import (
	"fmt"
	"log"
	"time"

	"raidii"
)

const (
	frameBytes = 64 << 10 // one digitized frame
	frameRate  = 24       // frames/second
	videoSecs  = 30       // length of the stored clip
	fetchBytes = 1 << 20  // players buffer ahead in 1 MB fetches
)

func main() {
	clipBytes := int64(frameBytes * frameRate * videoSecs)
	fmt.Printf("clip: %d frames of %d KB (%.1f MB, %.1f MB/s play rate)\n",
		frameRate*videoSecs, frameBytes>>10, float64(clipBytes)/1e6,
		float64(frameBytes*frameRate)/1e6)

	// Phase 1: ingest from the digitizer.
	srv, err := raidii.NewServer(raidii.Fig8Geometry())
	if err != nil {
		log.Fatal(err)
	}
	_, err = srv.Simulate(func(t *raidii.Task) error {
		if err := t.FormatFS(); err != nil {
			return err
		}
		if err := t.Board(0).Mkdir("/video"); err != nil {
			return err
		}
		f, err := t.Board(0).Create("/video/microscope.clip")
		if err != nil {
			return err
		}
		start := t.Elapsed()
		frame := make([]byte, frameBytes)
		for off := int64(0); off < clipBytes; off += frameBytes {
			if _, err := f.Write(off, frame); err != nil {
				return err
			}
		}
		if err := t.Sync(); err != nil {
			return err
		}
		d := t.Elapsed() - start
		fmt.Printf("ingest: %.1f MB in %v (%.1f MB/s) — %.1fx real time\n",
			float64(clipBytes)/1e6, d, float64(clipBytes)/d.Seconds()/1e6,
			float64(videoSecs)/d.Seconds())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 2: concurrent playback at increasing viewer counts.  Players
	// buffer ahead in 1 MB fetches; each fetch must complete before the
	// buffered video runs out, or playback stalls.  Each stream plays at
	// frameBytes*frameRate = 1.5 MB/s.
	streamRate := float64(frameBytes * frameRate) // bytes/second
	fetchPeriod := time.Duration(float64(fetchBytes) / streamRate * 1e9)
	for _, viewers := range []int{1, 4, 8, 12, 16, 24} {
		srv2, err := raidii.NewServer(raidii.Fig8Geometry())
		if err != nil {
			log.Fatal(err)
		}
		missed, total := 0, 0
		_, err = srv2.Simulate(func(t *raidii.Task) error {
			if err := t.FormatFS(); err != nil {
				return err
			}
			f, err := t.Board(0).Create("/clip")
			if err != nil {
				return err
			}
			buf := make([]byte, 1<<20)
			for off := int64(0); off < clipBytes; off += int64(len(buf)) {
				if _, err := f.Write(off, buf); err != nil {
					return err
				}
			}
			if err := t.Sync(); err != nil {
				return err
			}

			nFetches := int(clipBytes / fetchBytes)
			playStart := t.Elapsed()
			for fetch := 0; fetch < nFetches; fetch++ {
				// The fetch for buffer k must land before the player has
				// consumed buffers 0..k-1 (one buffer of pre-roll).
				deadline := playStart + time.Duration(fetch+1)*fetchPeriod
				off := int64(fetch) * fetchBytes
				for v := 0; v < viewers; v++ {
					if _, _, err := f.Read(off, fetchBytes); err != nil {
						return err
					}
				}
				total++
				if t.Elapsed() > deadline {
					missed++
				}
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "sustained"
		if missed > 0 {
			verdict = fmt.Sprintf("%d/%d periods overran", missed, total)
		}
		fmt.Printf("%3d viewers (%6.1f MB/s aggregate demand): %s\n",
			viewers, float64(viewers)*streamRate/1e6, verdict)
	}
}
