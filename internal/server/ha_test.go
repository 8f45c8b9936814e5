package server

// Tests for the HA serving layer: graceful drain, the admission-slot leak
// fix (write deadlines + abortable admission), idle reaping, heartbeat
// failover, session-bound idempotent writes, and the accept-backoff reset.

import (
	"bytes"
	"errors"
	"net"
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
	s.budget.mu.Lock()
	used := s.budget.used
	s.budget.mu.Unlock()
	if used != 0 {
		t.Fatalf("byte budget leaked %d bytes across drain", used)
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
	done := make(chan struct{})
	go func() {
		s.servePipelined(srv, nil)
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
	s.budget.mu.Lock()
	used := s.budget.used
	s.budget.mu.Unlock()
	if used != 0 {
		t.Fatalf("byte budget leaked %d bytes", used)
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
