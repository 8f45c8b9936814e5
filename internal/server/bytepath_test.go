package server

// Tests for the connection byte path: buffered frame reads and the drain
// check they need, pooled request bodies, and batched vectored responses,
// including a batch that fails part-way.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"purity/internal/client"
	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/wire"
)

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (cli, srv net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	cli, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv = <-accepted
	if srv == nil {
		t.FailNow()
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// frames renders request frames back to back, as one buffer.
func frames(t *testing.T, op byte, tags ...uint32) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, tag := range tags {
		if err := wire.WriteTaggedFrame(&b, op, tag, nil); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// assertReleased checks that every admission resource and body a finished
// connection took came back: the byte budget, the body pool, the tag
// ledger and every tenant window.
func assertReleased(t *testing.T, s *Server, c *pconn) {
	t.Helper()
	s.budget.mu.Lock()
	used := s.budget.used
	s.budget.mu.Unlock()
	s.bodies.mu.Lock()
	lent := s.bodies.lent
	s.bodies.mu.Unlock()
	if used != 0 || lent != 0 {
		t.Fatalf("after the connection: budget used %d bytes, %d pooled bodies still lent", used, lent)
	}
	if c == nil {
		return
	}
	c.tagMu.Lock()
	tags := len(c.tags)
	c.tagMu.Unlock()
	if tags != 0 {
		t.Fatalf("%d tags still in flight", tags)
	}
	for vol, w := range c.tenants {
		if len(w) != 0 {
			t.Fatalf("tenant %d window still holds %d slots", vol, len(w))
		}
	}
}

// TestDrainStopsAtBufferedFrame: four requests arrive in one TCP segment,
// so the buffered reader holds the fourth when Shutdown begins. Shutdown's
// expired read deadline cannot stop a read the buffer serves, so the
// reader's own drain check must: the three frames admitted before the
// drain complete and are answered, the fourth is never admitted, and every
// release runs.
func TestDrainStopsAtBufferedFrame(t *testing.T) {
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One worker and one queue slot: the first request parks in the worker,
	// the second fills the queue, and the reader blocks handing over the
	// third — admitted, with the fourth behind it in the buffer.
	s := NewWithConfig(pair, controller.Primary, Config{Workers: 1, QueueDepth: 1})
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
	if _, err := cli.Write(frames(t, wire.OpListVolumes, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	cost := admissionCost(wire.OpListVolumes, nil)
	waitFor(t, "three requests admitted", func() bool {
		s.budget.mu.Lock()
		defer s.budget.mu.Unlock()
		return s.budget.used == 3*cost
	})
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(5 * time.Second) }()
	waitFor(t, "drain begun", s.draining)
	close(gate)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("connection did not finish after the drain began")
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if n := dispatched.Load(); n != 3 {
		t.Fatalf("%d requests dispatched; want the 3 admitted before the drain", n)
	}
	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	for tag := uint32(1); tag <= 3; tag++ {
		op, got, _, err := wire.ReadTaggedFrame(cli)
		if err != nil || op != wire.OpListVolumes || got != tag {
			t.Fatalf("response %d: op=%d tag=%d err=%v", tag, op, got, err)
		}
	}
	assertReleased(t, s, c)
}

// failingConn fails the failAt-th Write after putting half of it on the
// wire. The first Write closes started and then waits for gate.
type failingConn struct {
	net.Conn
	started, gate chan struct{}
	failAt        int64
	writes        atomic.Int64
}

func (c *failingConn) Write(p []byte) (int, error) {
	switch c.writes.Add(1) {
	case 1:
		close(c.started)
		<-c.gate
	case c.failAt:
		n, _ := c.Conn.Write(p[:len(p)/2])
		return n, errors.New("injected: write failed mid-batch")
	}
	return c.Conn.Write(p)
}

// TestBatchWriteFailureReleasesEveryFrame: three responses go out in one
// vectored write, and the connection fails in the middle of the batch's
// second. The connection is torn down and counted once, every frame of the
// batch (and the completion behind it) is released exactly once, and the
// peer sees every response before the failure whole and the one it hit
// torn.
func TestBatchWriteFailureReleasesEveryFrame(t *testing.T) {
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(pair, controller.Primary, Config{Workers: 1, QueueDepth: 8})
	// net.Buffers writes one buffer per Write on a wrapped conn. The first
	// response goes alone (the second is not dispatched until the writer is
	// in its Write) as Writes 1 and 2, the first held until the second to
	// fourth have queued; those three are the batch, Writes 3 to 8, and
	// Write 5 is the batch's second header.
	cli, srv := tcpPair(t)
	fc := &failingConn{Conn: srv, started: make(chan struct{}), gate: make(chan struct{}), failAt: 5}
	parked := make(chan struct{})
	unpark := make(chan struct{})
	var dispatched atomic.Int64
	s.stall = func(op byte, payload []byte) {
		switch dispatched.Add(1) {
		case 2:
			<-fc.started
		case 5:
			// With one worker, the fifth request reaching dispatch means the
			// second to fourth have all completed into the writer's queue.
			close(parked)
			<-unpark
		}
	}
	c := s.newPconn(wire.NewConn(fc), nil)
	served := make(chan struct{})
	go func() {
		c.serve()
		close(served)
	}()
	if _, err := cli.Write(frames(t, wire.OpListVolumes, 1, 2, 3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	<-parked
	close(fc.gate)
	waitFor(t, "the batch's write failure", func() bool {
		return s.Frontend().AbnormalDisconnects.Load() == 1
	})
	close(unpark)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("connection did not finish after its writer failed")
	}
	if got := s.Frontend().AbnormalDisconnects.Load(); got != 1 {
		t.Fatalf("AbnormalDisconnects = %d, want 1", got)
	}
	assertReleased(t, s, c)

	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	for tag := uint32(1); tag <= 3; tag++ {
		_, got, _, err := wire.ReadTaggedFrame(cli)
		if tag == 3 {
			if err == nil {
				t.Fatal("the torn third response parsed whole")
			}
			break
		}
		if err != nil || got != tag {
			t.Fatalf("response %d: tag=%d err=%v", tag, got, err)
		}
	}
}

// stamp fills a buffer with its sectors' identities: writer, round and
// sector, so a byte that lands anywhere but where it was sent is caught.
func stamp(b []byte, writer, round, sector int) {
	for i := 0; i < len(b); i += 512 {
		for j := i; j < i+512; j += 16 {
			binary.LittleEndian.PutUint32(b[j:], uint32(writer))
			binary.LittleEndian.PutUint32(b[j+4:], uint32(round))
			binary.LittleEndian.PutUint32(b[j+8:], uint32(sector+i/512))
			binary.LittleEndian.PutUint32(b[j+12:], uint32(j-i))
		}
	}
}

// TestPooledBodiesManyWriters: 64 writers share one connection, each
// writing sector-stamped 4 KiB blocks to its own region and reading each
// back. The pool lends the body returned last, so bodies are reused from
// one request to the next; a body put back before its request was done
// with it would put one writer's bytes in another's sectors.
func TestPooledBodiesManyWriters(t *testing.T) {
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(pair, controller.Primary, Config{Workers: 8, QueueDepth: 64, TenantWindow: 64})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go s.Serve(l)
	c, err := client.DialPipelined(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 64
		rounds  = 4
		block   = 4 << 10
	)
	vol, err := c.CreateVolume("stamped", writers*rounds*block)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, block)
			for r := 0; r < rounds; r++ {
				off := int64((w*rounds + r) * block)
				stamp(buf, w, r, int(off/512))
				if err := c.WriteAt(vol, off, buf); err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
				got, err := c.ReadAt(vol, off, block)
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d read: %w", w, r, err)
					return
				}
				if !bytes.Equal(got, buf) {
					errs <- fmt.Errorf("writer %d round %d: read back another request's bytes", w, r)
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
	want := make([]byte, block)
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			off := int64((w*rounds + r) * block)
			stamp(want, w, r, int(off/512))
			got, err := c.ReadAt(vol, off, block)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("writer %d round %d: final read back mismatch (err=%v)", w, r, err)
			}
		}
	}
	c.Close()
	waitFor(t, "connection teardown", func() bool { return liveConns(s) == 0 })
	assertReleased(t, s, nil)
}
