package client

// HA initiator tests: reconnect + idempotent replay under injected faults,
// per-op deadlines on blackholed connections, NotPrimary redirect handling.
// These run under -race in check.sh.

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"purity/internal/chaos"
	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/server"
	"purity/internal/sim"
)

// startHAServer brings up one server for a role on loopback.
func startHAServer(t *testing.T, pair *controller.Pair, via controller.Role) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := server.NewWithConfig(pair, via, server.Config{})
	go s.Serve(l)
	return l.Addr().String()
}

func newHAPair(t *testing.T) *controller.Pair {
	t.Helper()
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHAWritesSurviveConnectionChaos: with the injector resetting and
// tearing connections, every acked write must land exactly once and read
// back intact — the transparent-retry contract.
func TestHAWritesSurviveConnectionChaos(t *testing.T) {
	pair := newHAPair(t)
	addr := startHAServer(t, pair, controller.Primary)
	vol, _, err := pair.Array().CreateVolume(0, "v", 8<<20)
	if err != nil {
		t.Fatal(err)
	}

	inj := chaos.New(chaos.Config{Seed: 42, ResetProb: 0.05, TearProb: 0.05})
	h, err := NewHA(HAConfig{
		Addrs:     []string{addr},
		Dial:      inj.Dial,
		OpTimeout: 2 * time.Second,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const writers = 4
	const opsPer = 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := 0; i < opsPer; i++ {
				off := int64(w*opsPer+i) * 4096
				sim.NewRand(uint64(off + 1)).Bytes(buf)
				if err := h.WriteAt(uint64(vol), off, buf); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every acked write is present exactly once.
	tab := pair.Sessions()
	if got := tab.AppliedOK.Load(); got != writers*opsPer {
		t.Fatalf("AppliedOK = %d, want %d (duplicate or lost applies)", got, writers*opsPer)
	}
	if tab.Overflows.Load() != 0 {
		t.Fatalf("Overflows = %d", tab.Overflows.Load())
	}
	want := make([]byte, 4096)
	for w := 0; w < writers; w++ {
		for i := 0; i < opsPer; i++ {
			off := int64(w*opsPer+i) * 4096
			sim.NewRand(uint64(off + 1)).Bytes(want)
			got, err := h.ReadAt(uint64(vol), off, 4096)
			if err != nil {
				t.Fatalf("read back off %d: %v", off, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("acked write at off %d lost or corrupted", off)
			}
		}
	}
	if inj.Stats().Resets.Load()+inj.Stats().TornWrites.Load() == 0 {
		t.Fatal("chaos injected nothing; the test proved nothing")
	}
	if h.Stats().Connects.Load() < 2 {
		t.Fatalf("no reconnects happened: %s", h.Stats().Summary())
	}
}

// TestHADeadlineFiresOnBlackhole: a blackholed connection (reads return
// nothing, forever) must not hang the caller — the per-op deadline condemns
// it and the op completes on a clean reconnect.
func TestHADeadlineFiresOnBlackhole(t *testing.T) {
	pair := newHAPair(t)
	addr := startHAServer(t, pair, controller.Primary)
	vol, _, err := pair.Array().CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	inj := chaos.New(chaos.Config{Seed: 3, BlackholeProb: 1.0})
	h, err := NewHA(HAConfig{
		Addrs:       []string{addr},
		Dial:        inj.Dial,
		OpTimeout:   100 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	done := make(chan error, 1)
	go func() { done <- h.WriteAt(uint64(vol), 0, make([]byte, 4096)) }()
	// The first attempts blackhole; the deadline must fire.
	waitFor(t, "deadline abort", func() bool {
		return h.Stats().DeadlineAborts.Load() >= 1
	})
	// Lift the fault: new connections are clean, the replay lands.
	inj.SetConfig(chaos.Config{Seed: 3})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after blackhole lifted: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write never completed after blackhole lifted")
	}
	if pair.Sessions().AppliedOK.Load() != 1 {
		t.Fatalf("AppliedOK = %d", pair.Sessions().AppliedOK.Load())
	}
}

// TestHANotPrimaryRedirect: a client pointed at a fenced ex-primary must
// follow CodeNotPrimary to the survivor transparently.
func TestHANotPrimaryRedirect(t *testing.T) {
	pair := newHAPair(t)
	primAddr := startHAServer(t, pair, controller.Primary)
	secAddr := startHAServer(t, pair, controller.Secondary)
	vol, _, err := pair.Array().CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	sim.NewRand(5).Bytes(data)
	if _, err := pair.Array().WriteAt(0, vol, 0, data); err != nil {
		t.Fatal(err)
	}
	// Fail over: the primary role is now fenced.
	pair.KillPrimary()
	if _, _, err := pair.FailoverTo(controller.Secondary, 0); err != nil {
		t.Fatal(err)
	}

	h, err := NewHA(HAConfig{Addrs: []string{primAddr, secAddr}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	got, err := h.ReadAt(uint64(vol), 0, 4096)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("redirected read: %v", err)
	}
	if h.Stats().Redirects.Load() == 0 {
		t.Fatalf("no redirect recorded: %s", h.Stats().Summary())
	}
	if err := h.WriteAt(uint64(vol), 4096, data); err != nil {
		t.Fatalf("redirected write: %v", err)
	}
}

// dropConn is a transport whose reads, once armed, are thrown away and
// fail: the request reaches the server and is applied, the ack never
// reaches the client — the ambiguous failure idempotent replay exists for.
type dropConn struct {
	net.Conn
	armed atomic.Bool
}

func (c *dropConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.armed.Load() {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return n, err
}

// TestHAStaleDialIsNotAdopted forces the interleaving behind check.sh's
// E15 flake (AppliedOK above the number of writes). Two ops dial at once
// with session 0. The winner is adopted under session S, a write is applied
// through it whose ack is lost, and the connection is condemned. Only then
// does the slow loser's dial return — carrying a fresh session the server
// opened for it. If the client adopts it, the lost-ack write is replayed
// under a session with no record of it and applied a second time.
func TestHAStaleDialIsNotAdopted(t *testing.T) {
	pair := newHAPair(t)
	addr := startHAServer(t, pair, controller.Primary)
	vol, _, err := pair.Array().CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// The first three dials park until the test releases them: the winner,
	// the loser, and the replay's redial.
	var dials atomic.Int32
	gates := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	winner := &dropConn{}
	h, err := NewHA(HAConfig{
		Addrs: []string{addr},
		Dial: func(network, addr string) (net.Conn, error) {
			n := int(dials.Add(1))
			if n <= len(gates) {
				<-gates[n-1]
			}
			conn, err := net.Dial(network, addr)
			if n == 1 && err == nil {
				winner.Conn = conn
				return winner, nil
			}
			return conn, err
		},
		BackoffBase: time.Millisecond,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	payload := func(i int) []byte {
		buf := make([]byte, 4096)
		sim.NewRand(uint64(i + 1)).Bytes(buf)
		return buf
	}
	write := func(i int) chan error {
		done := make(chan error, 1)
		go func() { done <- h.WriteAt(uint64(vol), int64(i)*4096, payload(i)) }()
		return done
	}
	wait := func(what string, done chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never completed", what)
		}
	}
	tab := pair.Sessions()

	first := write(0)
	waitFor(t, "the winner's dial", func() bool { return dials.Load() == 1 })
	second := write(1)
	waitFor(t, "the loser's dial", func() bool { return dials.Load() == 2 })

	close(gates[0])
	wait("write through the winner", first)
	session := h.Session()
	if session == 0 {
		t.Fatal("no session after the first write")
	}

	// A write whose ack is lost: applied under the session, then the
	// connection dies and the op backs off into a redial, which parks.
	winner.armed.Store(true)
	third := write(2)
	waitFor(t, "the lost-ack write to be applied", func() bool { return tab.AppliedOK.Load() == 2 })
	waitFor(t, "the replay's redial", func() bool { return dials.Load() == 3 })

	// No connection is current. The loser's dial now completes with a
	// session of its own.
	close(gates[1])
	wait("the loser's write", second)
	if got := h.Session(); got != session {
		t.Fatalf("session changed from %d to %d: a stale dial was adopted", session, got)
	}
	close(gates[2])
	wait("the replayed write", third)

	if got := h.Session(); got != session {
		t.Fatalf("session changed from %d to %d", session, got)
	}
	if got := tab.AppliedOK.Load(); got != 3 {
		t.Fatalf("AppliedOK = %d, want 3: a sequence number was applied twice (%s)", got, tab.Summary())
	}
	if got := tab.ReplaysSuppressed.Load(); got != 1 {
		t.Fatalf("ReplaysSuppressed = %d, want 1 (%s)", got, tab.Summary())
	}
	if got := h.Stats().StaleDials.Load(); got != 1 {
		t.Fatalf("StaleDials = %d, want 1: %s", got, h.Stats().Summary())
	}
	for i := 0; i < 3; i++ {
		got, err := h.ReadAt(uint64(vol), int64(i)*4096, 4096)
		if err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("write %d does not read back: %v", i, err)
		}
	}
}
