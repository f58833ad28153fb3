package raidii

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"raidii/internal/client"
	"raidii/internal/host"
	"raidii/internal/raid"
	"raidii/internal/trace"
)

// TestNetworkFaultTraceDeterministic runs the same scripted network fault
// plan — an Ultranet ring flap plus periodic packet loss on the client NIC
// — under retried client reads with a background parity scrub, twice, and
// demands byte-identical Chrome trace JSON.  Link detection, backoff,
// resumed transfers and scrub repairs are all simulated events, so an
// identical plan must replay identically.
func TestNetworkFaultTraceDeterministic(t *testing.T) {
	run := func() string {
		plan := FaultPlan{}.
			LinkDownAt(800*time.Millisecond, PortUltranetRing, 0).
			LinkUpAt(1200*time.Millisecond, PortUltranetRing, 0).
			PacketLossEvery(6, PortClientNIC, 0)
		srv, err := NewServer(WithDisksPerString(1),
			WithFaultPlan(plan),
			WithClientRetry(RetryPolicy{MaxRetries: 40}))
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.Attach(srv.Sys().Eng, trace.Config{Label: "net-det", Pid: 1, Events: true})
		ws := client.NewWorkstation(srv.Sys(), "ws0", host.SPARCstation10())
		ws.Retry = srv.Sys().Cfg.ClientRetry
		_, err = srv.Simulate(func(task *Task) error {
			if err := task.FormatFS(); err != nil {
				return err
			}
			f, err := task.Board(0).Create("/wl")
			if err != nil {
				return err
			}
			if _, err := f.Write(0, make([]byte, 2<<20)); err != nil {
				return err
			}
			if err := task.Sync(); err != nil {
				return err
			}
			// Background patrol over a bounded stripe window, so the traced
			// run stays small while still recording scrub spans.
			sc, err := task.Board(0).b.Array.StartScrub(raid.ScrubConfig{MaxStripes: 16})
			if err != nil {
				return err
			}
			cf, err := ws.Open(task.p, 0, "/wl")
			if err != nil {
				return err
			}
			if _, err := cf.Read(task.p, 0, 2<<20); err != nil {
				return err
			}
			sc.Wait(task.p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ws.Stats().Retries == 0 {
			t.Error("scripted network faults caused no client retries")
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	json1 := run()
	json2 := run()
	if json1 != json2 {
		t.Error("network-fault trace JSON differs between identical runs")
	}
	for _, marker := range []string{`"link-down"`, `"packet-lost"`, `"retry"`, `"patrol"`} {
		if !strings.Contains(json1, marker) {
			t.Errorf("trace does not record %s events", marker)
		}
	}
}

// TestScrubRepairsBeforeDemandRead is the patrol's acceptance gate: a
// planted latent sector is repaired by a background scrub pass, so the
// demand read that follows sees ZERO device errors.  A control server
// without the scrub shows the same demand read tripping over the latent
// sector and escalating.
func TestScrubRepairsBeforeDemandRead(t *testing.T) {
	demandRead := func(scrubFirst bool) (raid.Stats, uint64, uint64) {
		srv, err := NewServer(WithDisksPerString(1))
		if err != nil {
			t.Fatal(err)
		}
		var stripes, repairs uint64
		var st raid.Stats
		_, err = srv.Simulate(func(task *Task) error {
			bd := task.Board(0)
			bd.LatentError(2, 0, 8)
			if scrubFirst {
				sc, err := bd.Scrub()
				if err != nil {
					return err
				}
				stripes, repairs = sc.Wait()
			}
			if err := bd.HardwareRead(0, 4<<20); err != nil {
				return err
			}
			st = bd.ArrayStats()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, stripes, repairs
	}

	st, stripes, repairs := demandRead(true)
	if repairs == 0 {
		t.Fatalf("patrol made no repairs over a planted latent sector (verified %d stripes)", stripes)
	}
	if st.DeviceErrors != 0 || st.DiskFailures != 0 {
		t.Fatalf("stats %+v: demand read after scrub must see zero device errors", st)
	}
	if st.ScrubRepairs != repairs || st.ScrubbedStripes != stripes {
		t.Fatalf("ScrubStats mismatch: handle (%d, %d) vs array %+v", stripes, repairs, st)
	}

	ctl, _, _ := demandRead(false)
	if ctl.DeviceErrors == 0 {
		t.Fatal("control without scrub saw no device errors; the planted fault is not in the demand path")
	}
}

// TestNetworkFaultTimelineRecovery checks the experiment's shape: bandwidth
// collapses while the ring is down and recovers to within 10% of the
// pre-fault rate once the link returns.
func TestNetworkFaultTimelineRecovery(t *testing.T) {
	r, err := NetworkFaultTimeline()
	if err != nil {
		t.Fatal(err)
	}
	if r.PreFaultMBps < 5 {
		t.Fatalf("pre-fault bandwidth %.2f MB/s implausibly low", r.PreFaultMBps)
	}
	if r.DuringMBps > 0.5*r.PreFaultMBps {
		t.Fatalf("bandwidth during the outage (%.2f MB/s) did not collapse from %.2f MB/s",
			r.DuringMBps, r.PreFaultMBps)
	}
	if r.RecoveredMBps < 0.9*r.PreFaultMBps {
		t.Fatalf("recovered %.2f MB/s, want within 10%% of pre-fault %.2f MB/s",
			r.RecoveredMBps, r.PreFaultMBps)
	}
	if r.Retries == 0 {
		t.Fatal("the outage cost no retries; the fault did not reach the client path")
	}
}
