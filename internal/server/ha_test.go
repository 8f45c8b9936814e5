package server

// Tests for the HA serving layer: graceful drain, the admission-slot leak
// fix (write deadlines + abortable admission), idle reaping, heartbeat
// failover, session-bound idempotent writes, and the accept-backoff reset.

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"purity/internal/client"
	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/wire"
)

// TestGracefulDrainFinishesInflight: Shutdown must let an admitted request
// finish and flush its response, refuse new connections, and abort parked
// admission waits instead of leaking their slots.
func TestGracefulDrainFinishesInflight(t *testing.T) {
	s, addr := startServer(t, Config{TenantWindow: 1})
	c, err := client.DialPipelined(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vol, err := c.CreateVolume("v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(vol, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	s.stall = func(op byte, payload []byte) {
		if op == wire.OpRead {
			entered <- struct{}{}
			<-gate
		}
	}
	defer func() { s.stall = nil }()

	// First read is admitted and parks in a worker; the second parks in the
	// reader's admission wait (window is 1).
	first := make(chan error, 1)
	second := make(chan error, 1)
	go func() { _, err := c.ReadAt(vol, 0, 4096); first <- err }()
	<-entered // first read holds the tenant window's only slot
	// The first read may itself have waited (the write's slot is released
	// after its response is sent), so count from here: Shutdown must not
	// start before the second read's frame has reached admission.
	waits := s.Frontend().AdmissionWaits.Load()
	go func() { _, err := c.ReadAt(vol, 0, 4096); second <- err }()
	waitFor(t, "second read parked in admission", func() bool {
		return s.Frontend().AdmissionWaits.Load() > waits
	})

	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(5 * time.Second) }()
	// The parked admission wait must abort promptly (this is the leak fix:
	// before, it would pin the tenant slot forever).
	waitFor(t, "admission abort", func() bool {
		return s.Frontend().AdmissionAborts.Load() >= 1
	})
	close(gate)
	// The admitted request completes and its response is flushed.
	if err := <-first; err != nil {
		t.Fatalf("in-flight read failed across drain: %v", err)
	}
	<-second // aborted request: its call fails when the conn dies; either way it returns
	select {
	case err := <-shutDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	// New connections are refused after drain.
	if c2, err := client.DialPipelined(addr); err == nil {
		c2.Close()
		t.Fatal("drained server accepted a new connection")
	}
	if s.Frontend().Drains.Load() != 1 || s.Frontend().DrainNanos.Load() <= 0 {
		t.Fatalf("drain not recorded: %s", s.Frontend().Summary())
	}
	assertReleased(t, s, nil)
}

// TestDrainForceClosesAfterDeadline: a request still running when the
// drain's deadline passes does not hold the connection open: Shutdown
// force-closes it, waits for the request's worker, and reports the
// overrun.
func TestDrainForceClosesAfterDeadline(t *testing.T) {
	s, addr := startServer(t, Config{})
	c, err := client.DialPipelined(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vol, err := c.CreateVolume("v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(vol, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.stall = func(op byte, payload []byte) {
		if op == wire.OpRead {
			entered <- struct{}{}
			<-gate
		}
	}
	defer func() { s.stall = nil }()
	read := make(chan error, 1)
	go func() { _, err := c.ReadAt(vol, 0, 4096); read <- err }()
	<-entered

	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(20 * time.Millisecond) }()
	// Only the force-close ends the stalled read's call.
	if err := <-read; err == nil {
		t.Fatal("a read parked past the drain deadline succeeded")
	}
	close(gate)
	if err := <-shutDone; err == nil || !strings.Contains(err.Error(), "force-closed") {
		t.Fatalf("Shutdown past its deadline: err = %v, want the force-close report", err)
	}
}

// TestWriterDeadlineFreesAdmission is the admission-slot-leak regression:
// a client that stops reading used to wedge the connection's writer forever
// via backpressure, pinning the tenant slot, the in-flight bytes and the
// reader parked behind them. With the write deadline the connection tears
// down and every admission resource is released.
func TestWriterDeadlineFreesAdmission(t *testing.T) {
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(pair, controller.Primary, Config{
		TenantWindow: 1,
		WriteTimeout: 50 * time.Millisecond,
	})
	gate := make(chan struct{})
	s.stall = func(op byte, payload []byte) {
		if op == wire.OpStats {
			<-gate
		}
	}

	// net.Pipe gives a fully synchronous transport: the server's response
	// write blocks until the peer reads — and this peer never will.
	cli, srv := net.Pipe()
	defer cli.Close()
	c := s.newPconn(wire.NewConn(srv), nil)
	done := make(chan struct{})
	go func() {
		c.serve()
		close(done)
	}()
	// Two requests on the control tenant (window 1): the first parks in a
	// worker on the gate, the second parks in the reader's admission wait.
	if err := wire.WriteTaggedFrame(cli, wire.OpStats, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteTaggedFrame(cli, wire.OpStats, 2, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second request parked in admission", func() bool {
		return s.Frontend().AdmissionWaits.Load() >= 1
	})
	// Release the first request. Its response write hits a peer that never
	// reads; the write deadline must fire, tear the connection down, and
	// unwind everything — before the fix this test hangs here.
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("connection leaked: writer (or admission wait) still parked")
	}
	if s.Frontend().WriteTimeouts.Load() == 0 {
		t.Fatalf("write deadline not attributed: %s", s.Frontend().Summary())
	}
	assertReleased(t, s, c)
}

// TestEveryAdmissionExitReleases drives each way the reader can stop with
// a frame it has not admitted — a failed payload read, a frame read after
// the drain began, a duplicate tag, a tenant-window wait cut short by the
// connection's teardown or by a drain, and a byte-budget wait denied by a
// drain — and checks that the frame's request gave back everything it
// took. Where the exit needs a parked wait, the first request holds the
// tenant window's only slot, or the whole byte budget, in a worker until
// the exit has happened.
func TestEveryAdmissionExitReleases(t *testing.T) {
	send := func(t *testing.T, cli net.Conn, tags ...uint32) {
		t.Helper()
		if _, err := cli.Write(frames(t, wire.OpListVolumes, tags...)); err != nil {
			t.Fatal(err)
		}
	}
	parked := func(s *Server) func() bool {
		return func() bool { return s.Frontend().AdmissionWaits.Load() >= 1 }
	}
	cases := []struct {
		name   string
		cfg    Config
		aborts int64 // AdmissionAborts the exit counts
		exit   func(t *testing.T, s *Server, c *pconn, cli net.Conn)
	}{
		{name: "payload read fails", exit: func(t *testing.T, s *Server, c *pconn, cli net.Conn) {
			var b bytes.Buffer
			if err := wire.WriteTaggedFrame(&b, wire.OpWrite, 1, make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Write(b.Bytes()[:wire.HeaderLen+10]); err != nil {
				t.Fatal(err)
			}
			cli.Close()
		}},
		{name: "draining", exit: func(t *testing.T, s *Server, c *pconn, cli net.Conn) {
			if err := s.Shutdown(time.Second); err != nil {
				t.Fatal(err)
			}
			send(t, cli, 1)
		}},
		{name: "duplicate tag", exit: func(t *testing.T, s *Server, c *pconn, cli net.Conn) {
			send(t, cli, 1, 1)
			waitFor(t, "the duplicate tag", func() bool { return s.Frontend().DuplicateTags.Load() == 1 })
		}},
		{name: "down abort", cfg: Config{TenantWindow: 1}, aborts: 1, exit: func(t *testing.T, s *Server, c *pconn, cli net.Conn) {
			send(t, cli, 1, 2)
			waitFor(t, "the second request parked on the tenant window", parked(s))
			c.teardown()
		}},
		{name: "drain abort", cfg: Config{TenantWindow: 1}, aborts: 1, exit: func(t *testing.T, s *Server, c *pconn, cli net.Conn) {
			send(t, cli, 1, 2)
			waitFor(t, "the second request parked on the tenant window", parked(s))
			if err := s.Shutdown(time.Second); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "budget denied", cfg: Config{MaxInflightBytes: admissionCost(wire.OpListVolumes, nil)}, aborts: 1,
			exit: func(t *testing.T, s *Server, c *pconn, cli net.Conn) {
				send(t, cli, 1, 2)
				// Tag 2 is claimed and its tenant slot taken; the budget, all
				// of it granted to tag 1, is what it waits on.
				waitFor(t, "the second request past its tag claim", func() bool {
					c.tagMu.Lock()
					defer c.tagMu.Unlock()
					return len(c.tags) == 2
				})
				if err := s.Shutdown(time.Second); err != nil {
					t.Fatal(err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runAdmissionExit(t, tc.cfg, tc.aborts, tc.exit) })
	}
}

// runAdmissionExit serves one pconn over a TCP pair, with the stall hook
// holding the first dispatched request on a gate, and calls exit to drive
// the reader to an unadmitted exit. Once the exit has counted aborts
// AdmissionAborts the gate opens; the connection must then finish, having
// counted no more, with everything admission took given back.
func runAdmissionExit(t *testing.T, cfg Config, aborts int64, exit func(t *testing.T, s *Server, c *pconn, cli net.Conn)) {
	t.Helper()
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(pair, controller.Primary, cfg)
	gate := make(chan struct{})
	var dispatched atomic.Int64
	s.stall = func(op byte, payload []byte) {
		if dispatched.Add(1) == 1 {
			<-gate
		}
	}
	cli, srv := tcpPair(t)
	c := s.newPconn(wire.NewConn(srv), nil)
	served := make(chan struct{})
	go func() {
		c.serve()
		close(served)
	}()
	exit(t, s, c, cli)
	if aborts > 0 {
		// Until the gate opens nothing frees the slot or the bytes the
		// wait is for, so the abort is the only way out of it.
		waitFor(t, "the admission abort", func() bool {
			return s.Frontend().AdmissionAborts.Load() >= aborts
		})
	}
	close(gate)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("connection did not finish after the exit")
	}
	if got := s.Frontend().AdmissionAborts.Load(); got != aborts {
		t.Errorf("AdmissionAborts = %d, want %d", got, aborts)
	}
	assertReleased(t, s, c)
}

// TestBudgetWaitAbortsAfterDrainBegan: bytes a release frees after
// Shutdown began do not admit a frame parked on the byte budget. The test
// holds the whole budget itself, so the frame waits in acquire; then it
// holds the budget's lock from before the drain begins until it has
// returned its own grant, so the freed bytes are there before the parked
// reader can look again. The frame must be aborted, not admitted.
func TestBudgetWaitAbortsAfterDrainBegan(t *testing.T) {
	cost := admissionCost(wire.OpListVolumes, nil)
	runAdmissionExit(t, Config{MaxInflightBytes: cost}, 1, func(t *testing.T, s *Server, c *pconn, cli net.Conn) {
		if !s.budget.acquire(cost, nil, nil) {
			t.Fatal("budget not granted")
		}
		if _, err := cli.Write(frames(t, wire.OpListVolumes, 1)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the request parked on the budget", func() bool {
			return s.Frontend().AdmissionWaits.Load() >= 1
		})
		s.budget.mu.Lock()
		shut := make(chan error, 1)
		go func() { shut <- s.Shutdown(time.Second) }()
		waitFor(t, "the drain", s.draining)
		s.budget.used -= cost // the release, under the lock as release takes it
		s.budget.cond.Broadcast()
		s.budget.mu.Unlock()
		if err := <-shut; err != nil {
			t.Fatal(err)
		}
	})
}

// TestReleaseTwiceReturnsNothing: a request's second release finds nothing
// left to return — the budget, the body pool and the tenant window stay
// where the first left them, and the call does not block on the empty
// window.
func TestReleaseTwiceReturnsNothing(t *testing.T) {
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(pair, controller.Primary, Config{})
	_, srv := tcpPair(t)
	c := s.newPconn(wire.NewConn(srv), nil)
	r := &request{c: c, op: wire.OpListVolumes, tag: 7, payload: s.bodies.get(0)}
	if !c.claimTag(r.tag) {
		t.Fatal("tag already claimed")
	}
	r.tagged = true
	r.ten = c.tenantWindow(0)
	r.ten <- struct{}{}
	r.cost = admissionCost(r.op, r.payload)
	if !s.budget.acquire(r.cost, nil, nil) {
		t.Fatal("budget not granted")
	}
	ten := r.ten
	type state struct {
		used         int64
		lent, free   int
		slots, inTag int
	}
	snap := func() state {
		s.budget.mu.Lock()
		defer s.budget.mu.Unlock()
		s.bodies.mu.Lock()
		defer s.bodies.mu.Unlock()
		c.tagMu.Lock()
		defer c.tagMu.Unlock()
		return state{s.budget.used, s.bodies.lent, len(s.bodies.free), len(ten), len(c.tags)}
	}
	r.release()
	once := snap()
	if once != (state{free: 1}) {
		t.Fatalf("after one release: %+v", once)
	}
	done := make(chan struct{})
	go func() {
		r.release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second release blocked")
	}
	if twice := snap(); twice != once {
		t.Fatalf("second release moved state: %+v, after one %+v", twice, once)
	}
}

// TestIdleTimeoutReapsDeadConn: a client that dies mid-frame (or goes
// silent) is reaped by the idle deadline instead of pinning its goroutines
// forever.
func TestIdleTimeoutReapsDeadConn(t *testing.T) {
	s, addr := startServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Torn frame: promise 100 bytes, send 5, then just sit there.
	if _, err := conn.Write([]byte{100, 0, 0, 0, 5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "idle reap", func() bool {
		return s.Frontend().IdleTimeouts.Load() == 1
	})
}

// TestIdleTimeoutReapsPipelinedConn: past a good hello, the pipelined
// reader is bounded the same way — a torn frame is reaped by the idle
// deadline, not left to pin the connection.
func TestIdleTimeoutReapsPipelinedConn(t *testing.T) {
	s, addr := startServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) // a hung hello fails, not hangs
	if err := wire.WriteTaggedFrame(conn, wire.OpHello, 0, wire.EncodeHello(wire.ProtoTagged, 0, false)); err != nil {
		t.Fatal(err)
	}
	if op, _, _, err := wire.ReadTaggedFrame(conn); err != nil || op != wire.OpHello {
		t.Fatalf("hello answered with op %d, err %v", op, err)
	}
	if _, err := conn.Write([]byte{100, 0, 0, 0, 5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "idle reap of the pipelined reader", func() bool {
		return s.Frontend().IdleTimeouts.Load() == 1
	})
	if got := s.Frontend().Conns.Load(); got != 1 {
		t.Fatalf("Conns = %d, want the one connection past its hello", got)
	}
}

// TestAcceptBackoffResets: the transient-Accept backoff must reset after a
// successful accept — a burst of failures in the past must not tax future
// ones with an already-escalated delay.
func TestAcceptBackoffResets(t *testing.T) {
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	l := &flakyListener{Listener: inner, failures: 4}
	s := New(pair, controller.Primary)
	go func() {
		//lint:ignore errdrop test goroutine; Serve's nil return on close is asserted elsewhere
		s.Serve(l)
	}()

	dialOK := func() {
		c, err := client.DialPipelined(inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ListVolumes(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	dialOK() // burns the first 4 failures: 5+10+20+40 = 75 ms of backoff
	// Second burst: if backoff reset on the successful accept, the ladder
	// restarts at 5 ms and the burst clears in ~75 ms; if it kept escalating
	// it would pay 80+160+320+640 ms.
	l.mu.Lock()
	l.failures = 4
	l.mu.Unlock()
	start := time.Now()
	dialOK()
	waitFor(t, "second failure burst consumed", func() bool {
		return s.Frontend().AcceptRetries.Load() == 8
	})
	if elapsed := time.Since(start); elapsed > 800*time.Millisecond {
		t.Fatalf("second accept burst took %v: backoff did not reset", elapsed)
	}
}

// TestSessionIdempotentWriteOverWire: a session negotiated at hello makes
// OpWriteIdem replays no-ops — including a replay sent over a SECOND
// connection resuming the same session, the reconnect-after-failure shape.
func TestSessionIdempotentWriteOverWire(t *testing.T) {
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := NewWithConfig(pair, controller.Primary, Config{})
	go s.Serve(l)
	addr := l.Addr().String()

	c1, err := client.DialSession(addr, net.Dial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if c1.Session() == 0 {
		t.Fatal("no session granted")
	}
	vol, err := c1.CreateVolume("v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	copy(data, "idempotent payload")
	if err := c1.WriteIdem(1, vol, 0, data); err != nil {
		t.Fatal(err)
	}
	// Replay on the same connection: suppressed.
	if err := c1.WriteIdem(1, vol, 0, data); err != nil {
		t.Fatal(err)
	}
	// Replay over a fresh connection resuming the session: still suppressed.
	c2, err := client.DialSession(addr, net.Dial, c1.Session(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Session() != c1.Session() {
		t.Fatalf("resume changed session: %d -> %d", c1.Session(), c2.Session())
	}
	if err := c2.WriteIdem(1, vol, 0, data); err != nil {
		t.Fatal(err)
	}
	tab := pair.Sessions()
	if tab.ReplaysSuppressed.Load() != 2 || tab.AppliedOK.Load() != 1 {
		t.Fatalf("suppressed=%d appliedOK=%d", tab.ReplaysSuppressed.Load(), tab.AppliedOK.Load())
	}
	got, err := c2.ReadAt(vol, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back mismatch: %v", err)
	}
	// A plain pipelined connection (no session) is refused OpWriteIdem.
	c3, err := client.DialPipelined(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if err := c3.WriteIdem(2, vol, 0, data); err == nil {
		t.Fatal("session-less idempotent write accepted")
	}
}

// TestHeartbeatFailover: the full server-side HA loop. The secondary's
// monitor notices the primary's silence, runs the takeover, and from then
// on the fenced primary answers CodeNotPrimary while the survivor serves.
func TestHeartbeatFailover(t *testing.T) {
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(via controller.Role) (*Server, string) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		s := NewWithConfig(pair, via, Config{})
		go s.Serve(l)
		return s, l.Addr().String()
	}
	prim, primAddr := mk(controller.Primary)
	sec, secAddr := mk(controller.Secondary)

	ha := HAConfig{Interval: 10 * time.Millisecond, Silence: 80 * time.Millisecond}
	stopBeat := prim.StartBeat(ha)
	defer stopBeat()
	stopMon := sec.StartMonitor(ha)
	defer stopMon()

	c, err := client.DialPipelined(primAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vol, err := c.CreateVolume("v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	copy(data, "survives failover")
	if err := c.WriteAt(vol, 0, data); err != nil {
		t.Fatal(err)
	}

	// Kill the primary: heartbeats stop, the engine's memory is gone.
	stopBeat()
	pair.KillPrimary()
	waitFor(t, "monitor-driven failover", func() bool {
		return pair.Active() == controller.Secondary
	})
	// Active flips inside FailoverTo; the monitor counts it after the call
	// returns.
	waitFor(t, "failover counted", func() bool { return sec.Frontend().Failovers.Load() > 0 })
	if sec.Frontend().Failovers.Load() != 1 {
		t.Fatalf("Failovers = %d", sec.Frontend().Failovers.Load())
	}
	// The survivor serves the data.
	c2, err := client.DialPipelined(secAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.ReadAt(vol, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-failover read mismatch: %v", err)
	}
	// The fenced ex-primary redirects with CodeNotPrimary.
	_, err = c.ReadAt(vol, 0, len(data))
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeNotPrimary {
		t.Fatalf("fenced primary answered %v, want CodeNotPrimary", err)
	}
	if prim.Frontend().NotPrimaryRedirects.Load() == 0 {
		t.Fatal("redirect not counted")
	}
}
