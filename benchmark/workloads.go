package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"

	"raidii"
	"raidii/internal/raid"
	"raidii/internal/server"
	"raidii/internal/sim"
	zipf "raidii/internal/workload"
)

// workload is one set of inputs the benchmark runs.  run assembles the
// machine, sets it up, calls r.timed once around the timed phase and then
// verifies; an error it returns means the benchmark itself could not run
// (failed operations are counted on the rep instead).
type workload struct {
	name string
	why  string
	run  func(r *rep) error
}

// workloads is the frozen set.  Sizes were tuned once for this 2-core
// sandbox (file size and pass count only — request sizes, client counts and
// geometry are the issue's) so that a timed phase takes about 2 host
// seconds; see README.md for the numbers they produced.
var workloads = []workload{
	{
		name: "seq_read",
		why:  "Fig. 8 streaming reads: disk byte store and LFS/datapath buffers; parity, GF, cache and NVRAM idle, so the control for those",
		run:  seqRead,
	},
	{
		name: "seq_write",
		why:  "the same layers the other way: segment assembly, full-stripe RAID-5 writes, XOR over 15 columns; shows XOR, seq_read does not",
		run:  seqWrite,
	},
	{
		name: "degraded_r6",
		why:  "RAID-6 with two dead disks then two rebuilds: every read solves P+Q erasures, so GF(256) and XOR kernels show here only",
		run:  degradedR6,
	},
	{
		name: "small_ops",
		why:  "Zipf file-server trace with cache, NVRAM and a wrapping log: byte-light, event-dense; control for byte kernels, raidfsd's shape",
		run:  smallOps,
	},
	{
		name: "cluster_stripe",
		why:  "4-server striped store with cross parity, host kill and rebuild: the only path through zebra, the ring and a shared engine",
		run:  clusterStripe,
	},
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// newBoard assembles a single-board server and registers it with the rep.
func (r *rep) newBoard(cfg server.Config) (*server.Board, error) {
	sys, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	r.machine(sys.Eng, sys.Boards[0])
	return sys.Boards[0], nil
}

// seedFile creates path on b and fills it with size bytes of tape through
// Board.FSWrite, 1 MB at a time.
func (r *rep) seedFile(p *sim.Proc, b *server.Board, path string, size int) (*server.FSFile, error) {
	f, err := b.CreateFS(p, path)
	if err != nil {
		return nil, err
	}
	for off := 0; off < size; off += mb {
		n := mb
		if n > size-off {
			n = size - off
		}
		data := r.or.cut(r.rng, n)
		if err := b.FSWrite(p, f, int64(off), data); err != nil {
			return nil, err
		}
		r.or.wrote(path, int64(off), data)
	}
	return f, nil
}

// readBack reads a whole file in 1 MB pieces and checks every block; it is
// the after-the-timer verification pass.
func (r *rep) readBack(p *sim.Proc, b *server.Board, path string) {
	f, err := b.OpenFS(p, path)
	if err != nil {
		r.expect(err)
		return
	}
	size := r.or.size(path)
	for off := int64(0); off < size; off += mb {
		n := mb
		if int64(n) > size-off {
			n = int(size - off)
		}
		got, err := b.FSRead(p, f, off, n)
		if err == nil {
			err = r.or.check(path, off, got, n)
		}
		r.expect(err)
	}
}

func filePath(i int) string { return fmt.Sprintf("/f%d", i) }

// stripedName names striped file i; the cluster adds its own path prefix.
func stripedName(i int) string { return fmt.Sprintf("f%d", i) }

// seqRead: four clients each stream their own file with 512 KB
// Board.FSRead requests, several passes, on the RAID-5 Fig. 8 machine with
// no cache.
func seqRead(r *rep) error {
	const clients, reqBytes = 4, 512 * kb
	fileBytes := r.pick(48*mb, 2*mb)
	passes := r.pick(3, 1)

	b, err := r.newBoard(server.Fig8Config())
	if err != nil {
		return err
	}
	err = r.run("setup", func(p *sim.Proc) error {
		if err := b.FormatFS(p); err != nil {
			return err
		}
		for i := 0; i < clients; i++ {
			if _, err := r.seedFile(p, b, filePath(i), fileBytes); err != nil {
				return err
			}
		}
		return b.FS.Sync(p)
	})
	if err != nil {
		return err
	}

	r.timed(func() {
		r.clients(clients, func(p *sim.Proc, c int) error {
			path := filePath(c)
			f, err := b.OpenFS(p, path)
			if err != nil {
				return err
			}
			chunks := fileBytes / reqBytes
			first := r.clientRNG(c).Intn(chunks) // the stream starts at a seeded chunk and wraps
			for i := 0; i < passes*chunks; i++ {
				off := int64((first+i)%chunks) * reqBytes
				r.request(p, "FSRead", reqBytes, func() error {
					got, err := b.FSRead(p, f, off, reqBytes)
					if err != nil {
						return err
					}
					return r.or.check(path, off, got, reqBytes)
				})
			}
			return nil
		})
	})

	return r.run("verify", func(p *sim.Proc) error {
		r.checkBoard(p, b)
		return nil
	})
}

// seqWrite: four clients each write a fresh file with 256 KB Board.FSWrite
// requests, then one Sync; the read-back runs after the timer stops.
func seqWrite(r *rep) error {
	const clients, reqBytes = 4, 256 * kb
	perClient := r.pick(288, 8)

	b, err := r.newBoard(server.Fig8Config())
	if err != nil {
		return err
	}
	if err := r.run("setup", b.FormatFS); err != nil {
		return err
	}

	r.timed(func() {
		r.clients(clients, func(p *sim.Proc, c int) error {
			path := filePath(c)
			rng := r.clientRNG(c)
			f, err := b.CreateFS(p, path)
			if err != nil {
				return err
			}
			for i := 0; i < perClient; i++ {
				off := int64(i) * reqBytes
				data := r.or.cut(rng, reqBytes)
				r.request(p, "FSWrite", reqBytes, func() error {
					if err := b.FSWrite(p, f, off, data); err != nil {
						return err
					}
					r.or.wrote(path, off, data)
					return nil
				})
			}
			return nil
		})
		r.expect(r.run("sync", b.FS.Sync))
	})

	return r.run("verify", func(p *sim.Proc) error {
		for c := 0; c < clients; c++ {
			r.readBack(p, b, filePath(c))
		}
		r.checkBoard(p, b)
		return nil
	})
}

// degradedR6: RAID-6 on small disks (DiskSpec.Cylinders = 64, as the
// doublefault experiment uses: 22 MB per disk, 308 MB of array).  Phase A
// fails disks 3 and 9 and runs four clients of 80 % 128 KB random reads and
// 20 % 4 KB writes; phase B replaces both disks in turn while one client
// keeps reading; phase C, after the timer, verifies everything.
func degradedR6(r *rep) error {
	const clients, readBytes, writeBytes = 4, 128 * kb, 4 * kb
	const failA, failB = 3, 9 // fixed so seeds stay comparable
	fileBytes := r.pick(40*mb, mb)
	perClient := r.pick(288, 8)

	cfg := server.Fig8Config()
	cfg.DiskSpec.Cylinders = r.pick(64, 6)
	cfg.RAIDLevel = raid.Level6
	b, err := r.newBoard(cfg)
	if err != nil {
		return err
	}
	files := make([]*server.FSFile, clients)
	err = r.run("setup", func(p *sim.Proc) error {
		if err := b.FormatFS(p); err != nil {
			return err
		}
		for i := range files {
			if files[i], err = r.seedFile(p, b, filePath(i), fileBytes); err != nil {
				return err
			}
		}
		return b.FS.Sync(p)
	})
	if err != nil {
		return err
	}

	// randomRead is one checked 128 KB read at a seeded block-aligned offset.
	randomRead := func(p *sim.Proc, rng *rand.Rand, c int) {
		off := rng.Int63n(int64(fileBytes-readBytes)/blockSize+1) * blockSize
		r.request(p, "FSRead", readBytes, func() error {
			got, err := b.FSRead(p, files[c], off, readBytes)
			if err != nil {
				return err
			}
			return r.or.check(filePath(c), off, got, readBytes)
		})
	}

	r.timed(func() {
		for _, d := range []int{failA, failB} {
			r.expect(b.Array.FailDisk(d))
			b.Disks[d].Drive.Fail()
		}
		r.clients(clients, func(p *sim.Proc, c int) error {
			rng := r.clientRNG(c)
			for i := 0; i < perClient; i++ {
				if rng.Intn(5) != 0 {
					randomRead(p, rng, c)
					continue
				}
				off := rng.Int63n(int64(fileBytes/blockSize)) * blockSize
				data := r.or.cut(rng, writeBytes)
				r.request(p, "FSWrite", writeBytes, func() error {
					if err := b.FSWrite(p, files[c], off, data); err != nil {
						return err
					}
					r.or.wrote(filePath(c), off, data)
					return nil
				})
			}
			return nil
		})
		r.expect(r.run("sync", b.FS.Sync))

		// Phase B: both rebuilds, one after the other, under one reader.
		rebuilt := false
		r.eng.Spawn("rebuild", func(p *sim.Proc) {
			t0 := p.Now()
			for _, d := range []int{failA, failB} {
				rb, err := b.ReplaceDisk(d)
				if err == nil {
					_, err = rb.Wait(p)
				}
				r.expect(err)
			}
			r.rebuild = p.Now().Sub(t0)
			rebuilt = true
		})
		r.clients(1, func(p *sim.Proc, c int) error {
			rng := r.clientRNG(clients)
			for !rebuilt {
				randomRead(p, rng, c)
			}
			return nil
		})
	})

	return r.run("verify", func(p *sim.Proc) error {
		for c := 0; c < clients; c++ {
			r.readBack(p, b, filePath(c))
		}
		r.checkBoard(p, b)
		return nil
	})
}

// smallOps: two clients replay a seeded Zipf file-server trace (read /
// write / create / remove) against RAID-5 with an 8 MB, 16 KB-line cache,
// 4 MB of NVRAM and disks small enough that the log wraps; then DrainNVRAM,
// Sync, Checkpoint, Crash, MountFS and lfs.Check.
//
// Each client owns a directory and a trace generator of its own, so its
// expected file contents are a plain sequential shadow.  Every other write
// is a DurableWrite; those go to the client's journal file, which nothing
// reads until the NVRAM has drained — a staged record is not visible to
// reads before its group commit, so read-your-durable-writes is not
// something this machine promises a benchmark could check.
func smallOps(r *rep) error {
	const clients = 2
	const journalBytes = 8 * mb // larger than the NVRAM, so no two pending records overlap
	// The file system checkpoints only when told to, and cannot roll forward
	// across a log that has wrapped since its last checkpoint ("no free
	// segments" at mount); each client therefore checkpoints as a server's
	// 30-second timer would.
	const checkpointEvery = 2000
	ops := r.pick(30000, 600) // per client

	cfg := server.Fig8Config()
	cfg.DiskSpec.Cylinders = r.pick(28, 12)
	cfg.CacheBytes = 8 * mb
	cfg.CacheLineBytes = 16 * kb
	cfg.NVRAMBytes = 4 * mb
	b, err := r.newBoard(cfg)
	if err != nil {
		return err
	}

	// The file set is about four times the cache, so Zipf popularity gives
	// a hit share strictly between 0 and 1.
	traces := make([]*zipf.Trace, clients)
	shadow := map[string][]byte{}
	dir := func(c int, path string) string {
		return fmt.Sprintf("/c%d", c) + strings.TrimPrefix(path, "/srv")
	}
	journal := func(c int) string { return fmt.Sprintf("/c%d/journal", c) }
	for c := range traces {
		// The population — which files are large, which are popular — is
		// fixed per client: with Zipf popularity a handful of files carry a
		// third of the traffic, and letting the seed reassign their sizes
		// made seeds differ by 10 % in bytes moved.  The seed instead picks
		// the window of the (stationary) op stream that gets replayed.
		tc := zipf.DefaultTraceConfig()
		tc.Files = r.pick(300, 40)
		tc.Seed = int64(c) + 1
		traces[c] = zipf.NewTrace(tc)
		for skip := r.rng.Intn(10000); skip > 0; skip-- {
			traces[c].Next()
		}
	}
	err = r.run("setup", func(p *sim.Proc) error {
		if err := b.FormatFS(p); err != nil {
			return err
		}
		for c, tr := range traces {
			if err := b.FS.Mkdir(p, fmt.Sprintf("/c%d", c)); err != nil {
				return err
			}
			for i := 0; i < tr.Files(); i++ {
				path := dir(c, tr.PathOf(i))
				f, err := b.CreateFS(p, path)
				if err != nil {
					return err
				}
				data := r.or.cut(r.rng, tr.SizeOf(i))
				if err := b.FSWrite(p, f, 0, data); err != nil {
					return err
				}
				shadow[path] = append([]byte(nil), data...)
			}
			f, err := b.CreateFS(p, journal(c))
			if err != nil {
				return err
			}
			zero := make([]byte, mb)
			for off := 0; off < journalBytes; off += mb {
				if err := b.FSWrite(p, f, int64(off), zero); err != nil {
					return err
				}
			}
			shadow[journal(c)] = make([]byte, journalBytes)
		}
		return b.FS.Checkpoint(p)
	})
	if err != nil {
		return err
	}

	var recovered error
	r.timed(func() {
		r.clients(clients, func(p *sim.Proc, c int) error {
			rng := r.clientRNG(c)
			jf, err := b.OpenFS(p, journal(c))
			if err != nil {
				return err
			}
			var jOff int64
			durable := false
			for i := 0; i < ops; i++ {
				if i%checkpointEvery == checkpointEvery-1 {
					r.expect(b.FS.Checkpoint(p))
				}
				op := traces[c].Next()
				path := dir(c, op.Path)
				switch op.Kind {
				case "read":
					r.request(p, "read", op.Size, func() error {
						f, err := b.OpenFS(p, path)
						if err != nil {
							return err
						}
						got, err := b.FSRead(p, f, op.Off, op.Size)
						if err != nil {
							return err
						}
						want := shadow[path][op.Off : op.Off+int64(op.Size)]
						if len(got) != len(want) || crc32.ChecksumIEEE(got) != crc32.ChecksumIEEE(want) {
							return fmt.Errorf("%s@%d+%d: wrong bytes", path, op.Off, op.Size)
						}
						return nil
					})
				case "write":
					data := r.or.cut(rng, (op.Size+blockSize-1)/blockSize*blockSize)[:op.Size]
					durable = !durable
					if durable {
						if jOff+int64(op.Size) > journalBytes {
							jOff = 0
						}
						at := jOff
						jOff += int64(op.Size)
						r.request(p, "durable-write", op.Size, func() error {
							if err := b.DurableWrite(p, jf, at, data); err != nil {
								return err
							}
							copy(shadow[journal(c)][at:], data)
							return nil
						})
						continue
					}
					r.request(p, "write", op.Size, func() error {
						f, err := b.OpenFS(p, path)
						if err != nil {
							return err
						}
						if err := b.FSWrite(p, f, op.Off, data); err != nil {
							return err
						}
						copy(shadow[path][op.Off:], data)
						return nil
					})
				case "create":
					data := r.or.cut(rng, op.Size)
					r.request(p, "create", op.Size, func() error {
						f, err := b.CreateFS(p, path)
						if err != nil {
							return err
						}
						if err := b.FSWrite(p, f, 0, data); err != nil {
							return err
						}
						shadow[path] = append([]byte(nil), data...)
						return nil
					})
				case "remove":
					if _, created := shadow[path]; !created {
						continue // the window opened between a churn file's create and its remove
					}
					r.request(p, "remove", 0, func() error {
						delete(shadow, path)
						return b.FS.Remove(p, path)
					})
				}
			}
			return nil
		})
		recovered = r.run("recover", func(p *sim.Proc) error {
			if err := b.DrainNVRAM(p); err != nil {
				return err
			}
			if err := b.FS.Sync(p); err != nil {
				return err
			}
			// Roll-forward resurrects files created and removed since the last
			// checkpoint as orphans (the log carries no record of a removal),
			// so the crash comes after a checkpoint.
			if err := b.FS.Checkpoint(p); err != nil {
				return err
			}
			r.retireFS(b)
			b.Crash()
			if err := b.MountFS(p); err != nil {
				return err
			}
			r.checkFS(p, b)
			return nil
		})
	})
	if recovered != nil {
		return recovered // the board has no mounted file system left to verify
	}

	return r.run("verify", func(p *sim.Proc) error {
		for _, path := range sortedKeys(shadow) {
			f, err := b.OpenFS(p, path)
			if err != nil {
				r.expect(err)
				continue
			}
			want := shadow[path]
			for off := 0; off < len(want); off += mb {
				n := mb
				if n > len(want)-off {
					n = len(want) - off
				}
				got, err := b.FSRead(p, f, int64(off), n)
				if err == nil && (len(got) != n || crc32.ChecksumIEEE(got) != crc32.ChecksumIEEE(want[off:off+n])) {
					err = fmt.Errorf("%s@%d: wrong bytes after recovery", path, off)
				}
				r.expect(err)
			}
		}
		r.checkBoard(p, b)
		return nil
	})
}

// taskClock reads simulated time through the public Cluster API, which hands
// the benchmark a task instead of the simulated process.
type taskClock struct{ t *raidii.ClusterTask }

func (c taskClock) Now() sim.Time { return sim.Time(c.t.Elapsed()) }

// clusterStripe: one client issuing whole-stripe (2,880 KB) requests to a
// four-server cluster with cross parity: write, read, kill server 1, read
// degraded, overwrite half, restore, rebuild, read.
func clusterStripe(r *rep) error {
	const files, victim = 4, 1
	perFile := r.pick(8, 1) // stripes

	cl, err := raidii.NewCluster(raidii.Fig8Geometry(), raidii.WithServers(4))
	if err != nil {
		return err
	}
	fl := cl.Fleet()
	var boards []*server.Board
	for _, sys := range fl.Servers {
		boards = append(boards, sys.Boards...)
	}
	r.machine(fl.Eng, boards...)
	stalePeak := 0
	r.extra = func(c counters) { c["zebra.stale_fragments_peak"] = float64(stalePeak) }

	simulate := func(fn func(t *raidii.ClusterTask) error) error {
		_, err := cl.Simulate(fn)
		return err
	}
	if err := simulate(func(t *raidii.ClusterTask) error { return t.FormatFS() }); err != nil {
		return err
	}

	r.timed(func() {
		r.expect(simulate(func(t *raidii.ClusterTask) error {
			stripe, err := t.StripeBytes()
			if err != nil {
				return err
			}
			clock := taskClock{t}
			handles := make([]*raidii.ClusterFile, files)
			write := func(f, s int) {
				off := int64(s) * int64(stripe)
				data := r.or.cut(r.rng, stripe)
				r.request(clock, "Write", stripe, func() error {
					if _, err := handles[f].Write(off, data); err != nil {
						return err
					}
					r.or.wrote(stripedName(f), off, data)
					return nil
				})
			}
			readAll := func() {
				// Every pass visits the stripes in a freshly seeded order.
				for _, i := range r.rng.Perm(files * perFile) {
					f, off := i/perFile, int64(i%perFile)*int64(stripe)
					r.request(clock, "Read", stripe, func() error {
						got, _, err := handles[f].Read(off, stripe)
						if err != nil {
							return err
						}
						return r.or.check(stripedName(f), off, got, stripe)
					})
				}
			}

			for f := range handles {
				if handles[f], err = t.Create(stripedName(f)); err != nil {
					return err
				}
				for s := 0; s < perFile; s++ {
					write(f, s)
				}
			}
			if err := t.Sync(); err != nil {
				return err
			}
			readAll()
			t.KillServer(victim)
			readAll()
			for _, i := range r.rng.Perm(files * perFile)[:files*perFile/2] {
				write(i/perFile, i%perFile)
			}
			t.RestoreServer(victim)
			if stalePeak, err = t.StaleFragments(victim); err != nil {
				return err
			}
			t0 := t.Elapsed()
			if _, err := t.RebuildServer(victim); err != nil {
				return err
			}
			r.rebuild = t.Elapsed() - t0
			if err := t.Sync(); err != nil {
				return err
			}
			readAll()
			return nil
		}))
	})

	return r.run("verify", func(p *sim.Proc) error {
		for _, b := range boards {
			r.checkBoard(p, b)
		}
		return nil
	})
}
