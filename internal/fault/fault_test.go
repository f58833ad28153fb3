package fault

import (
	"errors"
	"testing"
	"time"

	"raidii/internal/sim"
)

// recTarget records injections and optionally rejects validation.
type recTarget struct {
	rejected error
	checked  []Event
	injected []Event
	times    []sim.Time
}

func (r *recTarget) Check(ev Event) error {
	r.checked = append(r.checked, ev)
	return r.rejected
}

func (r *recTarget) Inject(p *sim.Proc, ev Event) {
	r.injected = append(r.injected, ev)
	if p != nil {
		r.times = append(r.times, p.Now())
	} else {
		r.times = append(r.times, -1)
	}
}

func TestPlanBuilders(t *testing.T) {
	pl := Plan{}.
		DiskFailAt(time.Second, 0, 3).
		DiskFailAfterOps(40, 1, 2).
		LatentSector(0, 5, 4096, 8).
		LatentSectorAfterOps(7, 0, 6, 100, 1).
		StringStallAt(2*time.Second, 0, 0, 300*time.Millisecond).
		FSCrashAt(3*time.Second, 0)
	if len(pl.Events) != 6 {
		t.Fatalf("events = %d, want 6", len(pl.Events))
	}
	want := []Kind{DiskFail, DiskFail, LatentSector, LatentSector, StringStall, FSCrash}
	for i, ev := range pl.Events {
		if ev.Kind != want[i] {
			t.Fatalf("event %d kind = %v, want %v", i, ev.Kind, want[i])
		}
	}
	if pl.Empty() {
		t.Fatal("non-empty plan reported Empty")
	}
	if !(Plan{}).Empty() {
		t.Fatal("zero plan not Empty")
	}
	// Value-receiver builders must not mutate the original.
	base := Plan{}.DiskFailAt(time.Second, 0, 0)
	_ = base.FSCrashAt(2*time.Second, 0)
	if len(base.Events) != 1 {
		t.Fatal("builder mutated its receiver")
	}
}

func TestNetworkPlanBuilders(t *testing.T) {
	pl := Plan{}.
		LinkDownAt(time.Second, PortRing, 0).
		LinkUpAt(1500*time.Millisecond, PortRing, 0).
		PacketLossEvery(7, PortClientNIC, 2).
		EndpointStallAt(2*time.Second, PortBoardHIPPI, 1, 3*time.Millisecond)
	if len(pl.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(pl.Events))
	}
	want := []Event{
		{Kind: LinkDown, At: time.Second, Net: PortRing},
		{Kind: LinkUp, At: 1500 * time.Millisecond, Net: PortRing},
		{Kind: PacketLoss, Net: PortClientNIC, Board: 2, Every: 7},
		{Kind: EndpointStall, At: 2 * time.Second, Net: PortBoardHIPPI, Board: 1, Stall: 3 * time.Millisecond},
	}
	for i, ev := range pl.Events {
		if ev != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		DiskFail:      "disk-fail",
		LatentSector:  "latent-sector",
		StringStall:   "string-stall",
		FSCrash:       "fs-crash",
		LinkDown:      "link-down",
		LinkUp:        "link-up",
		PacketLoss:    "packet-loss",
		EndpointStall: "endpoint-stall",
		Kind(99):      "fault-kind-99",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestNetPortStrings(t *testing.T) {
	cases := map[NetPort]string{
		PortRing:       "ultranet-ring",
		PortBoardHIPPI: "board-hippi",
		PortClientNIC:  "client-nic",
		PortEther:      "ethernet",
		NetPort(42):    "net-port-42",
	}
	for n, want := range cases {
		if got := n.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(n), got, want)
		}
	}
}

func TestRetryable(t *testing.T) {
	for _, err := range []error{ErrLinkDown, ErrPacketLost, ErrNetTimeout, ErrServerBusy, ErrTimeout} {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
		// Wrapped errors stay retryable (layers wrap with %w).
		if !Retryable(errors.Join(errors.New("hippi: a -> b"), err)) {
			t.Errorf("wrapped %v not retryable", err)
		}
	}
	for _, err := range []error{ErrDiskFailed, ErrMedium, ErrDeadline, errors.New("other"), nil} {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
}

func TestRetryPolicyBackoffSchedule(t *testing.T) {
	// Explicit parameters: deterministic doubling capped at BackoffMax.
	pol := RetryPolicy{MaxRetries: 8, Backoff: 2 * time.Millisecond, BackoffMax: 10 * time.Millisecond}
	got := []time.Duration{pol.FirstBackoff()}
	for i := 0; i < 4; i++ {
		got = append(got, pol.NextBackoff(got[len(got)-1]))
	}
	want := []time.Duration{2, 4, 8, 10, 10}
	for i := range want {
		want[i] *= time.Millisecond
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backoff[%d] = %v, want %v (schedule %v)", i, got[i], want[i], got)
		}
	}
	// Zero values fall back to the package defaults.
	var def RetryPolicy
	if def.FirstBackoff() != DefaultBackoff {
		t.Fatalf("zero-policy first backoff = %v, want %v", def.FirstBackoff(), DefaultBackoff)
	}
	if next := def.NextBackoff(DefaultBackoffMax); next != DefaultBackoffMax {
		t.Fatalf("default cap broken: %v", next)
	}
}

func TestArmValidatesBeforeScheduling(t *testing.T) {
	e := sim.New()
	tgt := &recTarget{rejected: errors.New("bad board")}
	pl := Plan{}.DiskFailAt(time.Second, 9, 9)
	if err := Arm(e, pl, tgt); err == nil {
		t.Fatal("Arm accepted a rejected event")
	}
	if len(tgt.injected) != 0 {
		t.Fatal("rejected plan still injected")
	}
}

func TestArmSchedulesAtSimulatedTimes(t *testing.T) {
	e := sim.New()
	tgt := &recTarget{}
	pl := Plan{}.
		DiskFailAfterOps(10, 0, 1). // op-count: injected at arm time
		DiskFailAt(2*time.Second, 0, 0).
		FSCrashAt(time.Second, 0)
	if err := Arm(e, pl, tgt); err != nil {
		t.Fatal(err)
	}
	if len(tgt.injected) != 1 || tgt.injected[0].After != 10 {
		t.Fatalf("op-count event not injected at arm time: %+v", tgt.injected)
	}
	e.Run()
	if len(tgt.injected) != 3 {
		t.Fatalf("injected %d events, want 3", len(tgt.injected))
	}
	// Time-triggered events fire at their scheduled instants.
	byKind := map[Kind]sim.Time{}
	for i, ev := range tgt.injected {
		byKind[ev.Kind] = tgt.times[i]
	}
	if byKind[FSCrash] != sim.Time(time.Second) {
		t.Fatalf("fs-crash fired at %v, want 1s", byKind[FSCrash])
	}
	if got := tgt.times[len(tgt.times)-1]; got != sim.Time(2*time.Second) {
		t.Fatalf("last event fired at %v, want 2s", got)
	}
}

// TestArmRefusesMalformedEvents: an event that is wrong on any machine is
// refused by Arm before the target is asked, here one that accepts every
// event, and every builder's event is well formed.
func TestArmRefusesMalformedEvents(t *testing.T) {
	const at, stall = time.Second, 10 * time.Millisecond
	for _, c := range []struct {
		name string
		ev   Event
	}{
		{"op-count string stall", Event{Kind: StringStall, After: 5, Stall: stall}},
		{"op-count link down", Event{Kind: LinkDown, After: 5}},
		{"op-count link up", Event{Kind: LinkUp, After: 5}},
		{"op-count packet loss", Event{Kind: PacketLoss, After: 5, Every: 3}},
		{"op-count endpoint stall", Event{Kind: EndpointStall, After: 5, Net: PortBoardHIPPI, Stall: stall}},
		{"op-count server down", Event{Kind: ServerDown, After: 5}},
		{"op-count server up", Event{Kind: ServerUp, After: 5}},
		{"empty sector range", Event{Kind: LatentSector, LBA: 8}},
		{"negative sector count", Event{Kind: LatentSector, LBA: 8, Sectors: -1}},
		{"negative first sector", Event{Kind: LatentSector, LBA: -1, Sectors: 4}},
		{"zero string stall", Event{Kind: StringStall, At: at}},
		{"negative endpoint stall", Event{Kind: EndpointStall, At: at, Net: PortClientNIC, Stall: -stall}},
		{"zero loss period", Event{Kind: PacketLoss, Net: PortRing}},
		{"negative loss period", Event{Kind: PacketLoss, Net: PortEther, Every: -2}},
		{"ring stall", Event{Kind: EndpointStall, At: at, Net: PortRing, Stall: stall}},
		{"ethernet stall", Event{Kind: EndpointStall, At: at, Net: PortEther, Stall: stall}},
		{"negative client index", Event{Kind: LinkDown, At: at, Net: PortClientNIC, Board: -1}},
		{"unknown kind", Event{Kind: Kind(99), At: at}},
		{"unknown port", Event{Kind: LinkDown, At: at, Net: NetPort(42)}},
	} {
		tgt := &recTarget{}
		if err := Arm(sim.New(), Plan{Events: []Event{c.ev}}, tgt); err == nil {
			t.Errorf("%s: Arm accepted %+v", c.name, c.ev)
		}
		if len(tgt.checked) != 0 {
			t.Errorf("%s: the target was asked about a malformed event", c.name)
		}
	}
	pl := Plan{}.
		DiskFailAt(at, 0, 3).
		DiskFailAfterOps(40, 1, 2).
		LatentSector(0, 5, 4096, 8).
		LatentSectorAfterOps(7, 0, 6, 100, 1).
		StringStallAt(at, 0, 0, stall).
		FSCrashAt(at, 0).
		FSCrashAtCommit(3, 0).
		LinkDownAt(at, PortRing, 0).
		LinkUpAt(at, PortEther, 0).
		PacketLossEvery(1, PortClientNIC, 2).
		EndpointStallAt(at, PortBoardHIPPI, 1, stall).
		EndpointStallAt(at, PortClientNIC, 0, stall).
		ServerDownAt(at, 1).
		ServerUpAt(2*at, 1)
	for i, ev := range pl.Events {
		if err := ev.Validate(); err != nil {
			t.Errorf("builder event %d (%v): %v", i, ev.Kind, err)
		}
	}
	tgt := &recTarget{}
	if err := Arm(sim.New(), pl, tgt); err != nil || len(tgt.checked) != len(pl.Events) {
		t.Fatalf("Arm: %v, checked %d of %d events", err, len(tgt.checked), len(pl.Events))
	}
}
