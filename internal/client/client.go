// Package client is the Go client for the wire protocol — what an
// application host's initiator would be in a real deployment.
//
// DialPipelined (or DialSession, for a replay session) opens a connection
// with the protocol's hello. Every method call blocks its caller, but any
// number of goroutines may have calls in flight on the SAME connection at
// once — each gets a tag, the server completes them out of order, and a
// background reader routes responses back by tag. Queue depth is simply how
// many goroutines you point at one client; one goroutine is lock-step.
package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"purity/internal/wire"
)

// DialFunc opens the transport for a connection. net.Dial is the default;
// the chaos injector's Dial plugs in here to put faults on the path.
type DialFunc func(network, addr string) (net.Conn, error)

// Client is a connection to one controller port. Methods are safe for
// concurrent use; concurrent calls interleave on the connection.
type Client struct {
	conn net.Conn

	session uint64 // replay session negotiated at hello (0 = none)
	timeout time.Duration

	// wmu serializes request writes and guards the scratch they are built
	// in: head (frame header and fixed fields), vec and bufs (the vectored
	// write).
	wmu  sync.Mutex
	head [headCap]byte
	vec  [2][]byte
	bufs net.Buffers

	pmu     sync.Mutex // guards pending, nextTag, readErr
	pending map[uint32]chan taggedResp
	nextTag uint32 // tags start at 1; 0 is the hello's
	readErr error  // set once the reader goroutine dies; fails all calls
}

type taggedResp struct {
	op      byte
	payload []byte
}

// helloTimeout bounds the hello exchange when the caller gives no
// tighter bound: without one, a connection that eats the hello response
// hangs the dial forever.
const helloTimeout = 10 * time.Second

// DialPipelined connects and completes the hello, without a replay session.
func DialPipelined(addr string) (*Client, error) {
	return dialPipelined(addr, net.Dial, 0, false, 0)
}

// DialSession connects AND negotiates a replay session: session 0
// asks the array to open a fresh one, a nonzero ID resumes an existing
// session (after a reconnect, possibly to the peer controller's port). The
// granted ID is available via Session. timeout bounds the negotiation
// (default 10 s when 0).
func DialSession(addr string, dial DialFunc, session uint64, timeout time.Duration) (*Client, error) {
	return dialPipelined(addr, dial, session, true, timeout)
}

func dialPipelined(addr string, dial DialFunc, session uint64, wantSession bool, timeout time.Duration) (*Client, error) {
	conn, err := dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Client, error) {
		//lint:ignore errdrop best-effort teardown of a connection being abandoned; the negotiation error is the one the caller needs
		conn.Close()
		return nil, err
	}
	if timeout <= 0 {
		timeout = helloTimeout
	}
	//lint:ignore errdrop a conn that can't set deadlines fails the hello exchange below
	conn.SetDeadline(time.Now().Add(timeout))
	if err := wire.WriteTaggedFrame(conn, wire.OpHello, 0, wire.EncodeHello(wire.ProtoTagged, session, wantSession)); err != nil {
		return fail(err)
	}
	respOp, respTag, resp, err := wire.ReadTaggedFrame(conn)
	if err != nil {
		return fail(err)
	}
	if respOp != wire.OpHello || respTag != 0 {
		return fail(fmt.Errorf("client: hello answered with opcode %d, tag %d", respOp, respTag))
	}
	body, err := wire.ParseTaggedResponse(resp)
	if err != nil {
		return fail(err)
	}
	h, err := wire.DecodeHello(body)
	if err != nil {
		return fail(err)
	}
	if h.Version != wire.ProtoTagged {
		return fail(fmt.Errorf("client: server answered the hello with protocol version %d", h.Version))
	}
	if wantSession && !h.HasSession {
		return fail(errors.New("client: server did not grant a replay session"))
	}
	//lint:ignore errdrop clearing the hello deadline is best-effort; per-op deadlines take over from here
	conn.SetDeadline(time.Time{})
	c := &Client{conn: conn, session: h.Session, pending: make(map[uint32]chan taggedResp)}
	go c.readLoop()
	return c, nil
}

// Pipelined is always true; benchmark/rig.go is its last caller.
func (c *Client) Pipelined() bool { return true }

// Session returns the replay session ID granted at hello (0 if none).
func (c *Client) Session() uint64 { return c.session }

// SetOpTimeout bounds each call. A call that exceeds it fails with an error
// wrapping os.ErrDeadlineExceeded and the connection is condemned — after a
// timeout the request/response stream can no longer be trusted, so the
// whole connection resets (the iSCSI session-reset analogue). Set before
// sharing the client across goroutines.
func (c *Client) SetOpTimeout(d time.Duration) { c.timeout = d }

// Close closes the connection. Any in-flight calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// readLoop routes responses to their waiting callers. A response
// carrying a tag with no waiter is a protocol violation: the stream can no
// longer be trusted, so the connection fails as a whole. Responses are read
// through one buffered reader, so a socket read takes in every response
// that has arrived, and each lands in a buffer of exactly its size that
// nothing else keeps: what a call returns from it (ReadAt's data) is the
// caller's without a copy.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, wire.ReadBufSize)
	var hdr [wire.HeaderLen]byte
	for {
		// This read blocks indefinitely by design: responses arrive whenever
		// the server finishes, and the per-op timers in call condemn a stuck
		// connection via c.conn.Close(), which unblocks it with an error.
		//lint:ignore connguard per-op timers in call condemn the conn via Close, which unblocks this read
		op, tag, payload, err := wire.ReadFrame(br, &hdr)
		if err != nil {
			c.failAll(err)
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[tag]
		if ok {
			delete(c.pending, tag)
		}
		c.pmu.Unlock()
		if !ok {
			c.failAll(fmt.Errorf("client: response for unknown tag %d (op %d)", tag, op))
			//lint:ignore errdrop the stream is untrusted after an unknown tag; failAll already carries the error to every caller
			c.conn.Close()
			return
		}
		ch <- taggedResp{op: op, payload: payload}
	}
}

// failAll fails every pending call and all future ones.
func (c *Client) failAll(err error) {
	if errors.Is(err, net.ErrClosed) {
		err = errors.New("client: connection closed")
	}
	c.pmu.Lock()
	c.readErr = err
	for tag, ch := range c.pending {
		delete(c.pending, tag)
		close(ch)
	}
	c.pmu.Unlock()
}

// forget retires a call that will get no response.
func (c *Client) forget(tag uint32) {
	c.pmu.Lock()
	delete(c.pending, tag)
	c.pmu.Unlock()
}

// abandon forgets a call whose request or response can no longer be trusted
// to be whole and condemns the connection; the reader then fails every other
// pending call.
func (c *Client) abandon(tag uint32) {
	c.forget(tag)
	//lint:ignore errdrop the failure that led here is the root cause; this close is the condemnation, best-effort
	c.conn.Close()
}

// headCap is the client's header scratch: a frame header and the fixed
// fields of any data op fit. A larger control payload (a long volume name)
// is copied into a buffer of its own.
const headCap = 64

// call performs one request/response exchange; the request's payload is
// fixed followed by data. It blocks its caller; other goroutines' calls
// proceed concurrently.
//
// The request goes out as one vectored write under wmu: the frame header
// and fixed (an op's fixed fields, built by the caller on its stack) in
// the client's scratch, then data — the caller's write buffer — uncopied.
func (c *Client) call(op byte, fixed, data []byte) ([]byte, error) {
	c.pmu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.pmu.Unlock()
		return nil, err
	}
	c.nextTag++
	tag := c.nextTag
	ch := make(chan taggedResp, 1)
	c.pending[tag] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	head, err := wire.AppendHeader(c.head[:0], op, tag, len(fixed)+len(data))
	if err != nil {
		c.forget(tag) // refused before any byte was written
		c.wmu.Unlock()
		return nil, err
	}
	c.vec = [2][]byte{append(head, fixed...), data}
	c.bufs = c.vec[:]
	if len(data) == 0 {
		c.bufs = c.vec[:1]
	}
	// Bound the write: a server that stops reading would otherwise wedge
	// every caller behind wmu via TCP backpressure.
	//lint:ignore errdrop a conn that can't set deadlines fails the write below
	c.conn.SetWriteDeadline(time.Now().Add(c.opTimeout()))
	err = wire.WriteBuffers(c.conn, &c.bufs)
	c.vec = [2][]byte{} // the caller's buffer is the caller's again
	if err != nil {
		// Part of the frame may be on the wire. Condemn before releasing
		// wmu: the next caller's frame must find a closed connection,
		// never a half-frame for the server to splice it onto.
		c.abandon(tag)
		c.wmu.Unlock()
		return nil, err
	}
	c.wmu.Unlock()
	opT := c.opTimeout()
	t, _ := timers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(opT)
	} else {
		t.Reset(opT)
	}
	defer func() {
		t.Stop()
		timers.Put(t)
	}()
	var r taggedResp
	var ok bool
	select {
	case r, ok = <-ch:
	case <-t.C:
		// The op may or may not have been applied (an ambiguous failure);
		// the tag can no longer be trusted to come back, so the connection
		// resets. An HA caller reconnects and replays idempotently.
		c.abandon(tag)
		return nil, fmt.Errorf("client: op timed out after %v (tag %d): %w", opT, tag, os.ErrDeadlineExceeded)
	}
	if !ok {
		c.pmu.Lock()
		err := c.readErr
		c.pmu.Unlock()
		if err == nil {
			err = errors.New("client: connection closed")
		}
		return nil, err
	}
	if r.op != op {
		return nil, fmt.Errorf("client: response opcode %d for request %d (tag %d)", r.op, op, tag)
	}
	return wire.ParseTaggedResponse(r.payload)
}

// timers holds stopped per-call timers for reuse. Since Go 1.23 a timer's
// channel is unbuffered, so once Stop returns no stale expiry can reach the
// timer's next call; the response channel, by contrast, is never reused (a
// late response after a timeout would reach its next owner).
var timers sync.Pool

// opTimeout returns the per-op deadline budget: the configured timeout, or
// the initiator-style default when none was set — an exchange must never
// be unbounded (§4.3's I/O timeout discipline).
func (c *Client) opTimeout() time.Duration {
	if c.timeout > 0 {
		return c.timeout
	}
	return defaultOpTimeout
}

// defaultOpTimeout bounds an exchange when SetOpTimeout was never called,
// mirroring a SCSI initiator's I/O timeout: generous enough for a loaded
// array, finite so a dead server cannot wedge the caller forever.
const defaultOpTimeout = 30 * time.Second

// CreateVolume provisions a volume and returns its ID.
func (c *Client) CreateVolume(name string, sizeBytes int64) (uint64, error) {
	var e wire.Enc
	resp, err := c.call(wire.OpCreateVolume, e.Str(name).U64(uint64(sizeBytes)).B, nil)
	if err != nil {
		return 0, err
	}
	d := wire.Dec{B: resp}
	return d.U64(), d.Err
}

// OpenVolume resolves a volume name to (id, size).
func (c *Client) OpenVolume(name string) (uint64, int64, error) {
	var e wire.Enc
	resp, err := c.call(wire.OpOpenVolume, e.Str(name).B, nil)
	if err != nil {
		return 0, 0, err
	}
	d := wire.Dec{B: resp}
	id, size := d.U64(), d.U64()
	return id, int64(size), d.Err
}

// VolumeInfo is one listing entry.
type VolumeInfo struct {
	ID        uint64
	Name      string
	SizeBytes int64
	Snapshot  bool
}

// ListVolumes returns all volumes and snapshots.
func (c *Client) ListVolumes() ([]VolumeInfo, error) {
	resp, err := c.call(wire.OpListVolumes, nil, nil)
	if err != nil {
		return nil, err
	}
	d := wire.Dec{B: resp}
	n := d.U64()
	out := make([]VolumeInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		v := VolumeInfo{ID: d.U64(), Name: d.Str()}
		v.SizeBytes = int64(d.U64())
		v.Snapshot = d.U64() == 1
		out = append(out, v)
	}
	return out, d.Err
}

// ReadAt reads n bytes from a volume. The result is a slice of the
// response's own buffer: the caller's, uncopied.
func (c *Client) ReadAt(vol uint64, off int64, n int) ([]byte, error) {
	var fb [24]byte
	resp, err := c.call(wire.OpRead, appendU64s(fb[:0], vol, uint64(off), uint64(n)), nil)
	if err != nil {
		return nil, err
	}
	d := wire.Dec{B: resp}
	data := d.Bytes()
	if d.Err != nil {
		return nil, d.Err
	}
	return data, nil
}

// WriteAt writes data to a volume. data goes on the wire uncopied and is
// not retained once WriteAt returns.
func (c *Client) WriteAt(vol uint64, off int64, data []byte) error {
	var fb [20]byte
	fixed := binary.LittleEndian.AppendUint32(appendU64s(fb[:0], vol, uint64(off)), uint32(len(data)))
	_, err := c.call(wire.OpWrite, fixed, data)
	return err
}

// appendU64s appends u64 fields as wire.Enc would. A data op builds its
// fixed fields with it in an array on its stack, where the Enc it would
// otherwise grow escapes.
func appendU64s(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// WriteIdem writes data carrying a session-scoped idempotency sequence
// number: resending the same seq after an ambiguous failure returns the
// recorded outcome instead of applying twice. Requires a session
// (DialSession); the server rejects it otherwise.
func (c *Client) WriteIdem(seq, vol uint64, off int64, data []byte) error {
	var fb [28]byte
	fixed := binary.LittleEndian.AppendUint32(appendU64s(fb[:0], seq, vol, uint64(off)), uint32(len(data)))
	_, err := c.call(wire.OpWriteIdem, fixed, data)
	return err
}

// Snapshot snapshots a volume.
func (c *Client) Snapshot(vol uint64, name string) (uint64, error) {
	var e wire.Enc
	resp, err := c.call(wire.OpSnapshot, e.U64(vol).Str(name).B, nil)
	if err != nil {
		return 0, err
	}
	d := wire.Dec{B: resp}
	return d.U64(), d.Err
}

// Clone clones a snapshot into a new volume.
func (c *Client) Clone(snap uint64, name string) (uint64, error) {
	var e wire.Enc
	resp, err := c.call(wire.OpClone, e.U64(snap).Str(name).B, nil)
	if err != nil {
		return 0, err
	}
	d := wire.Dec{B: resp}
	return d.U64(), d.Err
}

// Delete removes a volume or snapshot.
func (c *Client) Delete(vol uint64) error {
	var e wire.Enc
	_, err := c.call(wire.OpDelete, e.U64(vol).B, nil)
	return err
}

// Stats returns the server's formatted statistics.
func (c *Client) Stats() (string, error) {
	resp, err := c.call(wire.OpStats, nil, nil)
	if err != nil {
		return "", err
	}
	d := wire.Dec{B: resp}
	return d.Str(), d.Err
}

// Flush checkpoints the array.
func (c *Client) Flush() error {
	_, err := c.call(wire.OpFlush, nil, nil)
	return err
}

// GC runs a garbage-collection cycle and returns its report text.
func (c *Client) GC() (string, error) {
	resp, err := c.call(wire.OpGC, nil, nil)
	if err != nil {
		return "", err
	}
	d := wire.Dec{B: resp}
	return d.Str(), d.Err
}
