// Infopad models the second planned use of §5.1: "The InfoPad project at
// U.C. Berkeley will use the RAID-II disk array as an information server"
// feeding pico-cellular base stations — a workload of many small files with
// occasional large media objects.
//
// It demonstrates the paper's two-path policy ("we maximize utilization and
// performance of the high-bandwidth data path if smaller requests use the
// Ethernet network and larger requests use the HIPPI network") by serving
// the same request mix with and without the policy.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"raidii"
)

func main() {
	const (
		smallFiles = 200
		smallSize  = 8 << 10 // pages, menus, map tiles
		mediaFiles = 6
		mediaSize  = 4 << 20 // audio/video objects
	)

	build := func() (*raidii.Server, error) {
		srv, err := raidii.NewServer(raidii.Fig8Geometry())
		if err != nil {
			return nil, err
		}
		_, err = srv.Simulate(func(t *raidii.Task) error {
			if err := t.FormatFS(); err != nil {
				return err
			}
			if err := t.Board(0).Mkdir("/pad"); err != nil {
				return err
			}
			small := make([]byte, smallSize)
			for i := 0; i < smallFiles; i++ {
				f, err := t.Board(0).Create(fmt.Sprintf("/pad/page%03d", i))
				if err != nil {
					return err
				}
				if _, err := f.Write(0, small); err != nil {
					return err
				}
			}
			media := make([]byte, 1<<20)
			for i := 0; i < mediaFiles; i++ {
				f, err := t.Board(0).Create(fmt.Sprintf("/pad/media%d", i))
				if err != nil {
					return err
				}
				for off := int64(0); off < mediaSize; off += int64(len(media)) {
					if _, err := f.Write(off, media); err != nil {
						return err
					}
				}
			}
			return t.Sync()
		})
		return srv, err
	}

	// The request mix: mostly small page fetches, a few media streams.
	type req struct {
		path  string
		size  int
		large bool
	}
	rng := rand.New(rand.NewSource(42))
	var mix []req
	for i := 0; i < 120; i++ {
		if rng.Intn(10) == 0 {
			mix = append(mix, req{fmt.Sprintf("/pad/media%d", rng.Intn(mediaFiles)), mediaSize, true})
		} else {
			mix = append(mix, req{fmt.Sprintf("/pad/page%03d", rng.Intn(smallFiles)), smallSize, false})
		}
	}

	serve := func(policy bool) (smallLat, mediaLat float64, total float64, err error) {
		srv, err := build()
		if err != nil {
			return 0, 0, 0, err
		}
		var sTot, mTot float64
		var sN, mN int
		elapsed, err := srv.Simulate(func(t *raidii.Task) error {
			for _, r := range mix {
				f, err := t.Board(0).Open(r.path)
				if err != nil {
					return err
				}
				var d float64
				if policy && !r.large {
					// Small requests take the Ethernet standard mode,
					// keeping the HIPPI path free for media.
					dur, err := f.ReadEthernet(0, r.size)
					if err != nil {
						return err
					}
					d = dur.Seconds()
				} else {
					_, dur, err := f.Read(0, r.size)
					if err != nil {
						return err
					}
					d = dur.Seconds()
				}
				if r.large {
					mTot += d
					mN++
				} else {
					sTot += d
					sN++
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, 0, err
		}
		return sTot / float64(sN) * 1e3, mTot / float64(mN) * 1e3, elapsed.Seconds(), nil
	}

	for _, policy := range []bool{false, true} {
		s, m, total, err := serve(policy)
		if err != nil {
			log.Fatal(err)
		}
		mode := "all requests on HIPPI path"
		if policy {
			mode = "two-path policy (small->Ethernet, media->HIPPI)"
		}
		fmt.Printf("%-48s small page: %6.1f ms   media object: %7.1f ms   run: %5.1fs\n",
			mode, s, m, total)
	}
	fmt.Println("\nthe HIPPI path pays ~1.1 ms setup plus file-system overhead per request;")
	fmt.Println("pages are latency-bound either way, but keeping them off the fast path")
	fmt.Println("preserves its bandwidth for the media streams the pads actually wait on.")
}
