package controller

import (
	"bytes"
	"testing"
	"time"

	"purity/internal/core"
	"purity/internal/crashpoint"
	"purity/internal/sim"
)

func newPair(t *testing.T) *Pair {
	t.Helper()
	p, err := NewPair(DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestActiveActiveForwarding(t *testing.T) {
	p := newPair(t)
	vol, _, err := p.Array().CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	sim.NewRand(1).Bytes(data)

	// Via the primary.
	d1, err := p.WriteAt(0, Primary, vol, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	// Via the secondary: same result, two extra interconnect hops.
	d2, err := p.WriteAt(d1, Secondary, vol, 4096, data)
	if err != nil {
		t.Fatal(err)
	}
	if (d2-d1)-(d1-0) < 2*DefaultConfig().InterconnectHop-sim.Microsecond {
		t.Logf("latencies: primary %v, secondary %v", d1, d2-d1)
	}
	got, _, err := p.ReadAt(d2, Secondary, vol, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:4096], data) || !bytes.Equal(got[4096:], data) {
		t.Fatal("forwarded I/O corrupted data")
	}
}

func TestFailoverPreservesData(t *testing.T) {
	p := newPair(t)
	a := p.Array()
	vol, _, err := a.CreateVolume(0, "v", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256<<10)
	sim.NewRand(2).Bytes(data)
	if _, err := a.WriteAt(0, vol, 0, data); err != nil {
		t.Fatal(err)
	}
	p.WarmSecondary()

	p.KillPrimary()
	if _, _, err := p.ReadAt(0, Primary, vol, 0, 4096); err != ErrUnavailable {
		t.Fatalf("read during outage: %v", err)
	}
	rep, done, err := p.Failover(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Failovers() != 1 {
		t.Fatal("failover not counted")
	}
	// The paper's budget: client timeout is 30 s.
	if rep.Total > 30*sim.Second {
		t.Fatalf("failover took %v, over the 30 s client timeout", rep.Total)
	}
	if rep.Recovery.NVRAMRecords == 0 {
		t.Fatal("recovery replayed nothing")
	}
	// Ownership moved: the secondary is active, the dead primary is fenced.
	if p.Active() != Secondary || !p.Fenced(Primary) || p.Fenced(Secondary) {
		t.Fatalf("post-failover roles: active=%v fencedP=%v fencedS=%v",
			p.Active(), p.Fenced(Primary), p.Fenced(Secondary))
	}
	if _, _, err := p.ReadAt(done, Primary, vol, 0, 4096); err != ErrNotActive {
		t.Fatalf("fenced primary served a read: %v", err)
	}
	got, _, err := p.ReadAt(done, Secondary, vol, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across failover")
	}
}

func TestFailoverCacheWarming(t *testing.T) {
	p := newPair(t)
	a := p.Array()
	vol, _, err := a.CreateVolume(0, "v", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128<<10)
	sim.NewRand(3).Bytes(data)
	if _, err := a.WriteAt(0, vol, 0, data); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	// Touch the data so the cache is hot, then ship the warm list.
	if _, _, err := a.ReadAt(0, vol, 0, len(data)); err != nil {
		t.Fatal(err)
	}
	if n := p.WarmSecondary(); n == 0 {
		t.Fatal("nothing to warm")
	}
	p.KillPrimary()
	rep, done, err := p.Failover(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Warmed == 0 {
		t.Fatal("failover did not warm the cache")
	}
	// Warmed reads are cache hits: almost pure CPU time.
	_, d, err := p.ReadAt(done, Secondary, vol, 0, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if lat := d - done; lat > 600*sim.Microsecond {
		t.Fatalf("post-warm read took %v, want cache-hit latency", lat)
	}
}

func TestFailoverRequiresDeadPrimary(t *testing.T) {
	p := newPair(t)
	if _, _, err := p.Failover(0); err == nil {
		t.Fatal("failover with live primary accepted")
	}
}

// TestFailoverReplaysDeletion fails over with a volume deletion still in
// the NVRAM log and a crashpoint registry configured, so the takeover's
// recovery runs under the pair's lock the two paths no other test drives:
// an elide predicate replayed into its table, and the registry's fault
// points passed unarmed.
func TestFailoverReplaysDeletion(t *testing.T) {
	cfg := core.TestConfig()
	cfg.Crash = crashpoint.New()
	p, err := NewPair(DefaultConfig(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Array()
	keep, done, err := a.CreateVolume(0, "keep", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	gone, done, err := a.CreateVolume(done, "gone", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8192)
	sim.NewRand(3).Bytes(data)
	for _, vol := range []core.VolumeID{keep, gone} {
		if done, err = a.WriteAt(done, vol, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	if done, err = a.Delete(done, gone); err != nil {
		t.Fatal(err)
	}

	p.KillPrimary()
	if _, done, err = p.Failover(done); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Array().Lookup(done, gone); err == nil {
		t.Fatal("deleted volume came back after failover")
	}
	got, _, err := p.ReadAt(done, Secondary, keep, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("surviving volume lost data across failover")
	}
}

func TestRepeatedFailovers(t *testing.T) {
	p := newPair(t)
	vol, _, err := p.Array().CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64<<10)
	sim.NewRand(4).Bytes(data)
	done := sim.Time(0)
	// Ownership ping-pongs: each round the active controller dies and the
	// other one takes over, un-fencing itself and fencing the corpse.
	for round := 0; round < 3; round++ {
		if done, err = p.WriteAt(done, p.Active(), vol, int64(round)*(64<<10), data); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
		survivor := Secondary
		if p.Active() == Secondary {
			survivor = Primary
		}
		p.KillPrimary()
		if _, done, err = p.FailoverTo(survivor, done); err != nil {
			t.Fatalf("round %d failover: %v", round, err)
		}
		if p.Active() != survivor || p.Fenced(survivor) {
			t.Fatalf("round %d: survivor %v not active", round, survivor)
		}
	}
	for round := 0; round < 3; round++ {
		got, d, err := p.ReadAt(done, p.Active(), vol, int64(round)*(64<<10), len(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round %d data lost: %v", round, err)
		}
		done = d
	}
}

func TestHeartbeatClock(t *testing.T) {
	p := newPair(t)
	p.Beat(Primary)
	if d := p.SinceBeat(Primary); d > time.Second {
		t.Fatalf("fresh beat reads %v old", d)
	}
	// The secondary's clock started at pair creation and only moves when it
	// beats; no beat means the gap grows.
	before := p.SinceBeat(Secondary)
	time.Sleep(5 * time.Millisecond)
	if after := p.SinceBeat(Secondary); after <= before {
		t.Fatalf("silent role's beat gap did not grow: %v -> %v", before, after)
	}
}
