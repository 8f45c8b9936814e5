package server

// Tests for the pipelined front end: out-of-order completion, admission
// control, the first-frame rule, protocol-violation handling, and the
// wire-health counters — including the adversarial cases (duplicate tags,
// oversized reads, torn frames) that a public block front end must survive.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"purity/internal/client"
	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/sim"
	"purity/internal/wire"
)

// startServer brings up one server with the given config on loopback and
// returns it with its address.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := NewWithConfig(pair, controller.Primary, cfg)
	go func() {
		if err := s.Serve(l); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	return s, l.Addr().String()
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPipelinedEndToEnd(t *testing.T) {
	s, addr := startServer(t, Config{})
	c, err := client.DialSession(addr, net.Dial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.CreateVolume("pipe-vol", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64<<10)
	sim.NewRand(3).Bytes(data)
	if err := c.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadAt(id, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back mismatch: %v", err)
	}
	snap, err := c.Snapshot(id, "s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Clone(snap, "c"); err != nil {
		t.Fatal(err)
	}
	vols, err := c.ListVolumes()
	if err != nil || len(vols) != 3 {
		t.Fatalf("ListVolumes = %d, %v", len(vols), err)
	}
	doc := fetchStats(t, c)
	if w := doc.Engine.Writes; w != 1 {
		t.Fatalf("engine.Writes = %d, want the 1 write issued over the wire", w)
	}
	if n := doc.Frontend["Conns"]; n != 1 || s.Frontend().Conns.Load() != 1 {
		t.Fatalf("frontend.Conns = %d, Frontend().Conns = %d, want 1", n, s.Frontend().Conns.Load())
	}
}

// statsDoc is the stats document as a reader decodes it.
type statsDoc struct {
	Version  int
	Engine   core.StatsSnapshot
	Frontend map[string]int64
	Sessions map[string]int64
}

// fetchStats asks for the stats document over c, a client whose hello
// opened a session, and decodes it, failing unless it is version 1, its
// engine object carries every exported field of core.StatsSnapshot (and so
// of core.Counters) under its own name, and its sessions object counts the
// session opened.
func fetchStats(t *testing.T, c *client.Client) statsDoc {
	t.Helper()
	text, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	var doc statsDoc
	var raw struct{ Engine map[string]json.RawMessage }
	if err := json.Unmarshal([]byte(text), &doc); err != nil {
		t.Fatalf("stats document does not decode: %v\n%s", err, text)
	}
	if err := json.Unmarshal([]byte(text), &raw); err != nil {
		t.Fatal(err)
	}
	if doc.Version != 1 {
		t.Fatalf("version = %d, want 1", doc.Version)
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(core.StatsSnapshot{})) {
		if _, ok := raw.Engine[f.Name]; !ok && f.IsExported() && !f.Anonymous {
			t.Errorf("engine object has no %s", f.Name)
		}
	}
	if n, ok := doc.Sessions["Opened"]; !ok || n < 1 {
		t.Errorf("sessions.Opened = %d (present %v), want at least the session c opened", n, ok)
	}
	return doc
}

// TestOutOfOrderCompletion proves the tentpole property: a slow read does
// NOT block a later fast read on the same connection. The first read is
// held at the dispatch boundary; the second must complete while the first
// is still stuck.
func TestOutOfOrderCompletion(t *testing.T) {
	s, addr := startServer(t, Config{})
	c, err := client.DialPipelined(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowVol, err := c.CreateVolume("slow", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	fastVol, err := c.CreateVolume("fast", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	if err := c.WriteAt(slowVol, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(fastVol, 0, buf); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	s.stall = func(op byte, payload []byte) {
		if op == wire.OpRead && tenantOf(op, payload) == slowVol {
			<-gate
		}
	}
	defer func() { s.stall = nil }()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.ReadAt(slowVol, 0, 4096)
		slowDone <- err
	}()
	// The fast read must complete while the slow one is gated.
	fastDone := make(chan error, 1)
	go func() {
		_, err := c.ReadAt(fastVol, 0, 4096)
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast read: %v", err)
		}
	case err := <-slowDone:
		t.Fatalf("slow read completed first (err=%v) — pipelining is lock-step", err)
	case <-time.After(5 * time.Second):
		t.Fatal("fast read blocked behind the gated slow read")
	}
	close(gate)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow read after release: %v", err)
	}
}

// TestPipelinedInterleavedInflight drives 64 concurrent in-flight requests
// over ONE connection — run under -race in check.sh, this is the data-race
// canary for the reader/worker/writer machinery.
func TestPipelinedInterleavedInflight(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 8, QueueDepth: 16})
	c, err := client.DialPipelined(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two tenants, so tenant windows interleave too.
	vols := make([]uint64, 2)
	for i := range vols {
		if vols[i], err = c.CreateVolume(fmt.Sprintf("v%d", i), 8<<20); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 64
	const opsPer = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vol := vols[w%len(vols)]
			// Distinct 8 KiB region per worker per volume.
			off := int64(w/len(vols)) * 8192
			want := make([]byte, 8192)
			sim.NewRand(uint64(w + 1)).Bytes(want)
			for i := 0; i < opsPer; i++ {
				if err := c.WriteAt(vol, off, want); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				got, err := c.ReadAt(vol, off, len(want))
				if err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("worker %d: data mismatch", w)
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
}

// TestDuplicateTagKillsConnection: reusing an in-flight tag is a protocol
// violation — the server answers with CodeDuplicateTag and drops the
// connection rather than emitting two responses with the same tag.
func TestDuplicateTagKillsConnection(t *testing.T) {
	s, addr := startServer(t, Config{})

	gate := make(chan struct{})
	s.stall = func(op byte, payload []byte) {
		if op == wire.OpStats {
			<-gate
		}
	}
	defer func() { s.stall = nil }()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A server that keeps the connection open fails the test here rather
	// than hanging the binary.
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteTaggedFrame(conn, wire.OpHello, 0, wire.EncodeHello(wire.ProtoTagged, 0, false)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := wire.ReadTaggedFrame(conn); err != nil {
		t.Fatal(err)
	}
	// First request parks in a worker on the gate; the second reuses its
	// tag while it is still in flight.
	if err := wire.WriteTaggedFrame(conn, wire.OpStats, 42, nil); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteTaggedFrame(conn, wire.OpStats, 42, nil); err != nil {
		t.Fatal(err)
	}
	op, tag, payload, err := wire.ReadTaggedFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if op != wire.OpStats || tag != 42 {
		t.Fatalf("op=%d tag=%d", op, tag)
	}
	_, rerr := wire.ParseTaggedResponse(payload)
	var re *wire.RemoteError
	if !errors.As(rerr, &re) || re.Code != wire.CodeDuplicateTag {
		t.Fatalf("duplicate tag response: %v", rerr)
	}
	if got := s.Frontend().DuplicateTags.Load(); got != 1 {
		t.Fatalf("DuplicateTags = %d", got)
	}
	// Release the parked request; its response flushes, then the
	// connection closes.
	close(gate)
	if _, _, _, err := wire.ReadTaggedFrame(conn); err != nil {
		t.Fatalf("parked request's response lost: %v", err)
	}
	if _, _, _, err := wire.ReadTaggedFrame(conn); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection survived a duplicate tag: %v", err)
	}
}

// TestOversizedReadRejected: the client-supplied read length is clamped
// before it can size an allocation; the connection survives that, and a
// write the client itself refuses to frame.
func TestOversizedReadRejected(t *testing.T) {
	s, addr := startServer(t, Config{})
	c, err := client.DialPipelined(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.CreateVolume("v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ReadAt(id, 0, wire.MaxReadLen+4096)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeTooLarge {
		t.Fatalf("oversized read: %v", err)
	}
	if got := s.Frontend().RejectedReads.Load(); got != 1 {
		t.Fatalf("RejectedReads = %d", got)
	}
	// A write too large to frame is refused before any byte is sent.
	if err := c.WriteAt(id, 0, make([]byte, wire.MaxFrame)); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
	// The connection is still healthy.
	if _, err := c.ListVolumes(); err != nil {
		t.Fatalf("connection dead after rejected read: %v", err)
	}
}

// flakyListener fails the first n Accepts with a transient error.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.failures > 0 {
		l.failures--
		l.mu.Unlock()
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: errors.New("connection aborted")}
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestServeSurvivesTransientAcceptErrors: a burst of EMFILE/ECONNABORTED
// style failures must not kill the listener; Serve exits only when the
// listener closes, and then cleanly.
func TestServeSurvivesTransientAcceptErrors(t *testing.T) {
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &flakyListener{Listener: inner, failures: 3}
	s := New(pair, controller.Primary)
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()

	// The listener misbehaved 3 times; a client must still get through.
	c, err := client.DialPipelined(inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListVolumes(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got := s.Frontend().AcceptRetries.Load(); got != 3 {
		t.Fatalf("AcceptRetries = %d", got)
	}
	inner.Close()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v on clean close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not exit after listener close")
	}
}

// TestWireHealthCounters: torn, oversized and malformed frames from
// hostile/buggy initiators land in distinct counters instead of vanishing.
func TestWireHealthCounters(t *testing.T) {
	s, addr := startServer(t, Config{})

	// Abnormal disconnect: header promises 100 bytes, client vanishes.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{100, 0, 0, 0, 5}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "abnormal disconnect count", func() bool {
		return s.Frontend().AbnormalDisconnects.Load() == 1
	})

	// Oversized: forged 4 GiB frame header.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "oversized frame count", func() bool {
		return s.Frontend().OversizedFrames.Load() == 1
	})
	conn.Close()

	// Malformed: zero-length frame.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "malformed frame count", func() bool {
		return s.Frontend().MalformedFrames.Load() == 1
	})
	conn.Close()

	// Clean EOF right after a complete exchange counts nothing.
	c, err := client.DialPipelined(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListVolumes(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, "connection teardown", func() bool { return liveConns(s) == 0 })
	tel := s.Frontend()
	if a, o, m := tel.AbnormalDisconnects.Load(), tel.OversizedFrames.Load(), tel.MalformedFrames.Load(); a != 1 || o != 1 || m != 1 {
		t.Fatalf("clean EOF moved a counter: abnormal=%d oversized=%d malformed=%d", a, o, m)
	}
	if got := tel.Conns.Load(); got != 1 {
		t.Fatalf("Conns = %d: only the clean connection completed a hello", got)
	}
}

// liveConns is how many connections the server is still tracking.
func liveConns(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestFirstFrameMustBeHello pins the first-frame rule: anything other than a
// hello at version ProtoTagged or later closes the connection without a
// reply, is counted in MalformedFrames, and reaches no worker.
func TestFirstFrameMustBeHello(t *testing.T) {
	frame := func(op byte, tag uint32, payload []byte) []byte {
		var b bytes.Buffer
		if err := wire.WriteTaggedFrame(&b, op, tag, payload); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tc := range []struct {
		name  string
		first []byte
	}{
		// What a v1 initiator would send: u32 length | op | payload, no tag.
		{"untagged v1 ListVolumes", []byte{1, 0, 0, 0, wire.OpListVolumes}},
		{"tagged non-hello", frame(wire.OpListVolumes, 1, nil)},
		{"hello at version 1", frame(wire.OpHello, 0, wire.EncodeHello(1, 0, false))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, addr := startServer(t, Config{})
			s.stall = func(op byte, payload []byte) {
				t.Errorf("op %d dispatched from a connection with no hello", op)
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// Follow with a well-formed request: it must not be served either.
			if _, err := conn.Write(append(tc.first, frame(wire.OpListVolumes, 2, nil)...)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil {
				t.Fatalf("server replied (%d bytes, err=%v); want the connection closed", n, err)
			}
			waitFor(t, "connection teardown", func() bool { return liveConns(s) == 0 })
			if got := s.Frontend().MalformedFrames.Load(); got != 1 {
				t.Fatalf("MalformedFrames = %d", got)
			}
			if got := s.Frontend().Conns.Load(); got != 0 {
				t.Fatalf("Conns = %d", got)
			}
		})
	}
}

// halfWriteConn tears one request: when armed, the next Write puts half its
// buffer on the wire and fails, leaving the connection open — what a write
// deadline expiring mid-Write looks like.
type halfWriteConn struct {
	net.Conn
	armed atomic.Bool
}

func (c *halfWriteConn) Write(p []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		n, _ := c.Conn.Write(p[:len(p)/2])
		return n, errors.New("injected: write failed mid-frame")
	}
	return c.Conn.Write(p)
}

// TestTornRequestCondemnsConnection: after a request write fails part-way,
// the client must not send another frame on that connection — the server
// would parse the half-frame plus the next frame as one request and apply
// foreign bytes as write data.
func TestTornRequestCondemnsConnection(t *testing.T) {
	s, addr := startServer(t, Config{})
	var writes atomic.Int64
	s.stall = func(op byte, payload []byte) {
		if op == wire.OpWrite {
			writes.Add(1)
		}
	}
	var hc *halfWriteConn
	c, err := client.DialSession(addr, func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		hc = &halfWriteConn{Conn: conn}
		return hc, nil
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vol, err := c.CreateVolume("v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	hc.armed.Store(true)
	if err := c.WriteAt(vol, 0, bytes.Repeat([]byte{0xaa}, 4096)); err == nil {
		t.Fatal("torn write reported success")
	}
	if err := c.WriteAt(vol, 0, bytes.Repeat([]byte{0xbb}, 4096)); err == nil {
		t.Fatal("write after a torn request succeeded on the same connection")
	}
	c.Close()
	waitFor(t, "connection teardown", func() bool { return liveConns(s) == 0 })
	if n := writes.Load(); n != 0 {
		t.Fatalf("server dispatched %d writes from a torn request stream", n)
	}
	c2, err := client.DialPipelined(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.ReadAt(vol, 0, 4096)
	if err != nil || !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatalf("volume is not untouched after a torn request (err=%v)", err)
	}
}

// TestAdmissionWindowBackpressure: a tenant beyond its in-flight window
// stalls the connection (backpressure) instead of queueing unboundedly, and
// the stall is counted.
func TestAdmissionWindowBackpressure(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 4, TenantWindow: 2, QueueDepth: 16})
	c, err := client.DialPipelined(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vol, err := c.CreateVolume("v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(vol, 0, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	s.stall = func(op byte, payload []byte) {
		if op == wire.OpRead {
			<-gate
		}
	}
	defer func() { s.stall = nil }()

	const n = 3 // window is 2: the third read must wait for a slot
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.ReadAt(vol, 0, 4096)
			done <- err
		}()
	}
	waitFor(t, "admission wait count", func() bool {
		return s.Frontend().AdmissionWaits.Load() >= 1
	})
	close(gate)
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}
