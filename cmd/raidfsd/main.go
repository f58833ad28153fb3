// Command raidfsd serves the simulated RAID-II file system over real TCP —
// the library as an actual network file server.  The wire protocol is a
// minimal line-oriented scheme in the spirit of the paper's raid_open /
// raid_read / raid_write socket library:
//
//	CREATE <path>\n                     -> OK <simulated-us>\n
//	OPEN <path>\n                       -> OK <size>\n
//	WRITE <path> <off> <n>\n<n bytes>   -> OK <simulated-us>\n
//	READ <path> <off> <n>\n             -> OK <m> <simulated-us>\n<m bytes>
//	MKDIR <path>\n                      -> OK\n
//	LS <path>\n                         -> OK <k>\n followed by k lines
//	RM <path>\n                         -> OK\n
//	SYNC\n                              -> OK <simulated-us>\n
//	QUIT\n
//
// Every operation also reports the simulated time the RAID-II hardware
// would have spent on it.  A failed operation answers ERR <reason>\n, and a
// WRITE refused before its body is read then closes the connection.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // opt-in profiling endpoint, gated by -pprof
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"raidii"
	"raidii/internal/telemetry"
	"raidii/internal/trace"
)

type serverState struct {
	mu       sync.Mutex // the simulation engine is single-threaded
	srv      *raidii.Server
	capacity int64 // board 0's array bytes: no WRITE can be longer
}

// newServerState formats srv's file system to serve it.
func newServerState(srv *raidii.Server) (*serverState, error) {
	st := &serverState{srv: srv}
	_, err := srv.Simulate(func(t *raidii.Task) error {
		st.capacity = t.Board(0).ArrayCapacity()
		return t.FormatFS()
	})
	return st, err
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9941", "listen address")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	traceOut := flag.String("trace", "", "on SIGINT/SIGTERM, write the accumulated simulation trace (Chrome JSON) to this file")
	util := flag.Bool("util", false, "on SIGINT/SIGTERM, print the component utilization table")
	metricsAddr := flag.String("metrics", "", "serve Prometheus telemetry at http://<addr>/metrics; empty disables")
	flag.Parse()

	srv, err := raidii.NewServer(raidii.Fig8Geometry())
	if err != nil {
		log.Fatal(err)
	}
	var rec *trace.Recorder
	if *traceOut != "" || *util {
		rec = trace.Attach(srv.Sys().Eng, trace.Config{Label: "raidfsd", Pid: 1, Events: *traceOut != ""})
	}
	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.Attach(srv.Sys().Eng)
	}
	st, err := newServerState(srv)
	if err != nil {
		log.Fatal(err)
	}

	if *pprofAddr != "" {
		// Real-host profiling of the daemon itself (the simulation measures
		// simulated time; pprof measures where the host CPU goes).
		//lint:allow rawgo real pprof HTTP listener on the host; never touches the simulation
		go func() {
			log.Printf("raidfsd: pprof at http://%s/debug/pprof/", *pprofAddr)
			log.Print(http.ListenAndServe(*pprofAddr, nil))
		}()
	}
	if reg != nil {
		// Real scrape endpoint for the simulated server's telemetry.  Each
		// scrape serializes onto the engine via st.mu, like every client
		// command, so the registry is never read mid-operation.
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			st.mu.Lock()
			defer st.mu.Unlock()
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := telemetry.WritePrometheus(w, reg, telemetry.ExportOptions{}); err != nil {
				log.Printf("raidfsd: metrics: %v", err)
			}
		})
		//lint:allow rawgo real metrics HTTP listener on the host; scrapes serialize onto the engine via st.mu
		go func() {
			log.Printf("raidfsd: metrics at http://%s/metrics", *metricsAddr)
			log.Print(http.ListenAndServe(*metricsAddr, mux))
		}()
	}
	if rec != nil {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		//lint:allow rawgo real signal handler on the host; the dump serializes onto the engine via st.mu
		go func() {
			<-sigc
			st.mu.Lock()
			defer st.mu.Unlock()
			if *util {
				fmt.Fprint(os.Stderr, rec.Table(0))
			}
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err == nil {
					err = trace.WriteChrome(f, rec)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					log.Printf("raidfsd: trace: %v", err)
				} else {
					log.Printf("raidfsd: wrote trace to %s", *traceOut)
				}
			}
			os.Exit(0)
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("raidfsd: simulated RAID-II serving on %s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		//lint:allow rawgo real network daemon, not simulation code; each connection is serialized onto the engine inside serve
		go st.serve(conn)
	}
}

func (st *serverState) serve(conn net.Conn) {
	defer conn.Close() //lint:allow errdrop per-connection teardown; a close error is not actionable
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	defer w.Flush() //lint:allow errdrop best-effort final flush; the client may already be gone
	for {
		if err := w.Flush(); err != nil {
			return // client hung up mid-reply
		}
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		if cmd == "QUIT" {
			fmt.Fprintf(w, "OK bye\n")
			return
		}
		if err := st.dispatch(cmd, fields[1:], r, w); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			if errors.As(err, new(unframed)) {
				return
			}
		}
	}
}

// unframed is the error of a WRITE refused before its body was read: nothing
// tells the body from the next command, so the connection ends.
type unframed struct{ error }

func (st *serverState) dispatch(cmd string, args []string, r *bufio.Reader, w *bufio.Writer) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch cmd {
	case "CREATE":
		if len(args) != 1 {
			return fmt.Errorf("usage: CREATE <path>")
		}
		d, err := st.srv.Simulate(func(t *raidii.Task) error {
			_, err := t.Board(0).Create(args[0])
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "OK %d\n", d.Microseconds())
	case "OPEN":
		if len(args) != 1 {
			return fmt.Errorf("usage: OPEN <path>")
		}
		var size int64
		_, err := st.srv.Simulate(func(t *raidii.Task) error {
			f, err := t.Board(0).Open(args[0])
			if err != nil {
				return err
			}
			size, err = f.Size()
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "OK %d\n", size)
	case "WRITE":
		if len(args) != 3 {
			return unframed{fmt.Errorf("usage: WRITE <path> <off> <n>")}
		}
		off, n, err := extent(args[1], args[2])
		if err != nil {
			return unframed{err}
		}
		if int64(n) > st.capacity {
			return unframed{fmt.Errorf("write of %d bytes is longer than the %d-byte array", n, st.capacity)}
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		d, err := st.srv.Simulate(func(t *raidii.Task) error {
			f, err := t.Board(0).Open(args[0])
			if err != nil {
				f, err = t.Board(0).Create(args[0])
				if err != nil {
					return err
				}
			}
			_, werr := f.Write(off, buf)
			return werr
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "OK %d\n", d.Microseconds())
	case "READ":
		if len(args) != 3 {
			return fmt.Errorf("usage: READ <path> <off> <n>")
		}
		off, n, err := extent(args[1], args[2])
		if err != nil {
			return err
		}
		var dur time.Duration
		var data []byte
		_, err = st.srv.Simulate(func(t *raidii.Task) error {
			f, err := t.Board(0).Open(args[0])
			if err != nil {
				return err
			}
			size, err := f.Size()
			if err != nil {
				return err
			}
			m := size - off
			if m > int64(n) {
				m = int64(n)
			}
			if m < 0 {
				m = 0
			}
			data, dur, err = f.Read(off, int(m))
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "OK %d %d\n", len(data), dur.Microseconds())
		// The wire carries the bytes the simulated store actually holds.
		if _, err := w.Write(data); err != nil {
			return err
		}
	case "MKDIR":
		if len(args) != 1 {
			return fmt.Errorf("usage: MKDIR <path>")
		}
		if _, err := st.srv.Simulate(func(t *raidii.Task) error { return t.Board(0).Mkdir(args[0]) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "OK\n")
	case "LS":
		path := "/"
		if len(args) == 1 {
			path = args[0]
		}
		var lines []string
		_, err := st.srv.Simulate(func(t *raidii.Task) error {
			ents, err := t.Board(0).ReadDir(path)
			if err != nil {
				return err
			}
			for _, e := range ents {
				fi, err := t.Board(0).Stat(strings.TrimSuffix(path, "/") + "/" + e.Name)
				if err != nil {
					return err
				}
				kind := "f"
				if fi.IsDir() {
					kind = "d"
				}
				lines = append(lines, fmt.Sprintf("%s %10d %s", kind, fi.Size, e.Name))
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "OK %d\n", len(lines))
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	case "RM":
		if len(args) != 1 {
			return fmt.Errorf("usage: RM <path>")
		}
		if _, err := st.srv.Simulate(func(t *raidii.Task) error { return t.Board(0).Remove(args[0]) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "OK\n")
	case "SYNC":
		d, err := st.srv.Simulate(func(t *raidii.Task) error { return t.Sync() })
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "OK %d\n", d.Microseconds())
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// extent parses a READ or WRITE request's offset and length, each a
// non-negative decimal integer.
func extent(offArg, nArg string) (int64, int, error) {
	off, err := strconv.ParseInt(offArg, 10, 64)
	if err != nil || off < 0 {
		return 0, 0, fmt.Errorf("bad offset %q", offArg)
	}
	n, err := strconv.Atoi(nArg)
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("bad length %q", nArg)
	}
	return off, n, nil
}
