package server

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"

	"purity/internal/controller"
	"purity/internal/wire"
)

// request is one frame from the moment its header is read. Admission
// records on it each resource it takes, so release, which returns exactly
// what the request holds, is the one place any of them goes back.
type request struct {
	c       *pconn
	op      byte
	tag     uint32
	payload []byte        // the frame's body, from the server's body pool
	tagged  bool          // tag is claimed in c.tags
	ten     chan struct{} // the tenant window the request holds a slot in
	cost    int64         // its grant from the byte budget
}

// release returns what the request holds — its tenant window slot, its
// byte-budget grant, its tag and its body — and clears each, so a second
// call returns nothing. An admitted request is released by the writer,
// after its response is written or discarded; one that fails admission,
// by the reader.
func (r *request) release() {
	if r.ten != nil {
		<-r.ten
		r.ten = nil
	}
	if r.cost != 0 {
		r.c.s.budget.release(r.cost)
		r.cost = 0
	}
	if r.tagged {
		r.c.dropTag(r.tag)
		r.tagged = false
	}
	if r.payload != nil {
		r.c.s.bodies.put(r.payload)
		r.payload = nil
	}
}

// outFrame is one completed response bound for the writer goroutine. The
// writer builds its header and status byte; resp goes on the wire as it
// is, uncopied.
type outFrame struct {
	op  byte
	tag uint32
	// ok: resp is a success result, sent after a StatusOK byte and, when
	// blob, after its u32 length (OpRead's data). Otherwise resp is a whole
	// wire.ErrResponse payload.
	ok, blob bool
	resp     []byte
	req      *request // released once the frame's batch is written or discarded; nil if never admitted
}

// payloadLen is the length of the frame's payload on the wire.
func (f *outFrame) payloadLen() int {
	n := len(f.resp)
	if f.ok {
		n++
		if f.blob {
			n += 4
		}
	}
	return n
}

// maxBatch bounds the frames one vectored write carries; maxHead is the
// most header bytes one frame needs (frame header, status, blob length).
const (
	maxBatch = 64
	maxHead  = wire.HeaderLen + 1 + 4
)

// pconn is one connection past its hello: the reader goroutine (the
// connection's accept goroutine) admits requests, Config.Workers goroutines
// dispatch them out of order, and a single writer goroutine serializes
// completions onto the socket — the only place response frames are written,
// so frames can never interleave.
type pconn struct {
	s    *Server
	conn *wire.Conn
	sess *controller.Session // replay session from the hello (nil if none)

	hi  chan *request // foreground reads
	lo  chan *request // everything else
	out chan outFrame

	// The writer goroutine's scratch: every header of a batch in head
	// (sized so it never regrows, which would move headers vec points
	// into), the batch's buffers in vec, and bufs, the net.Buffers the
	// vectored write consumes.
	head []byte
	vec  [][]byte
	bufs net.Buffers

	// down closes when the connection is torn down (writer failure), waking
	// any admission wait so a dead client can't pin a tenant slot or
	// in-flight bytes forever.
	down     chan struct{}
	downOnce sync.Once

	// tags tracks in-flight request tags for duplicate detection. Guarded
	// by tagMu (claimed by the reader, dropped at completion by the
	// requests' releases, which the writer runs).
	tagMu sync.Mutex
	tags  map[uint32]struct{}

	// tenants maps volume → in-flight window semaphore. The map itself is
	// touched only by the reader goroutine; the channels it holds are
	// shared with the requests' releases.
	tenants map[uint64]chan struct{}
}

// servePipelined runs one connection to completion.
func (s *Server) servePipelined(conn *wire.Conn, sess *controller.Session) {
	s.newPconn(conn, sess).serve()
}

// newPconn sets up a connection past its hello; serve runs it.
func (s *Server) newPconn(conn *wire.Conn, sess *controller.Session) *pconn {
	return &pconn{
		s:       s,
		conn:    conn,
		sess:    sess,
		hi:      make(chan *request, s.cfg.QueueDepth),
		lo:      make(chan *request, s.cfg.QueueDepth),
		out:     make(chan outFrame, s.cfg.QueueDepth),
		head:    make([]byte, 0, maxBatch*maxHead),
		vec:     make([][]byte, 0, 2*maxBatch),
		down:    make(chan struct{}),
		tags:    make(map[uint32]struct{}),
		tenants: make(map[uint64]chan struct{}),
	}
}

// serve runs the connection: its workers and writer, and the reader on the
// calling goroutine.
func (c *pconn) serve() {
	var workers sync.WaitGroup
	for i := 0; i < c.s.cfg.Workers; i++ {
		workers.Add(1)
		go c.worker(&workers)
	}
	writerDone := make(chan struct{})
	go c.writer(writerDone)

	c.readLoop()
	// Orderly drain: no new requests; workers finish what was admitted,
	// then the writer flushes every completion (running each release).
	close(c.hi)
	close(c.lo)
	workers.Wait()
	close(c.out)
	<-writerDone
}

// readLoop admits requests until the connection dies or the client commits
// a protocol violation. Admission can block — that is the design: a tenant
// over its window, or a connection over the global byte budget, stalls
// here, which backpressures the TCP stream instead of queueing unboundedly.
//
// Each frame, header and payload together, must arrive within
// Config.IdleTimeout of the reader asking for it. Frames are read through
// the connection's buffered reader, so a socket read takes in every frame
// that has arrived and the frames behind the first cost no syscall. That
// is also why admission checks for a drain itself: Shutdown's expired read
// deadline stops only a read that reaches the socket, and a frame already
// in the buffer never does.
func (c *pconn) readLoop() {
	var hdr [wire.HeaderLen]byte
	for {
		op, tag, n, err := c.conn.ReadHeader(&hdr, c.s.cfg.IdleTimeout)
		if err != nil {
			c.s.countReadErr(err)
			return
		}
		r := &request{c: c, op: op, tag: tag, payload: c.s.bodies.get(n)}
		if !c.admit(r) {
			r.release()
			return
		}
		if op == wire.OpRead {
			c.hi <- r
		} else {
			c.lo <- r
		}
	}
}

// admit reads r's body and takes, in order, its tag, a slot in its
// tenant's window and its grant from the byte budget, recording each on r
// as it is taken. false means the frame is not admitted and the reader
// stops; the caller's release then returns whatever admit took. Only a
// duplicate tag is answered; any other frame dropped unadmitted is
// replayed by the client's reconnect path.
func (c *pconn) admit(r *request) bool {
	if err := c.conn.ReadPayload(r.payload); err != nil {
		c.s.countReadErr(err)
		return false
	}
	if c.s.draining() {
		return false
	}
	if !c.claimTag(r.tag) {
		// A tag reused while still in flight would make two responses
		// carry the same tag — the initiator could never match them.
		// Report once, then kill the connection (the stream is
		// unsynchronized from the server's point of view).
		c.s.tel.DuplicateTags.Add(1)
		c.out <- outFrame{op: r.op, tag: r.tag,
			resp: wire.ErrResponse(wire.CodeDuplicateTag, "tag already in flight")}
		return false
	}
	r.tagged = true
	waited := false
	ten := c.tenantWindow(tenantOf(r.op, r.payload))
	select {
	case ten <- struct{}{}:
		r.ten = ten
	default:
		waited = true
		c.s.tel.AdmissionWaits.Add(1)
		// The wait is abortable: a connection torn down by its writer,
		// or a server drain, must not leave this goroutine parked on a
		// slot that will never free (the admission-slot leak).
		select {
		case ten <- struct{}{}:
			r.ten = ten
		case <-c.down:
		case <-c.s.drainCh:
		}
		// select picks at random among ready cases, so the slot may have
		// won against an abort; a frame that waited is not admitted past
		// one, and release gives the slot back.
		if c.aborted() {
			c.s.tel.AdmissionAborts.Add(1)
			return false
		}
	}
	cost := admissionCost(r.op, r.payload)
	if !c.s.budget.acquire(cost, func() {
		if !waited {
			c.s.tel.AdmissionWaits.Add(1)
		}
	}, c.aborted) {
		c.s.tel.AdmissionAborts.Add(1)
		return false
	}
	r.cost = cost
	return true
}

// aborted reports whether the connection went down or a server drain
// began: either ends an admission wait unadmitted.
func (c *pconn) aborted() bool {
	select {
	case <-c.down:
		return true
	case <-c.s.drainCh:
		return true
	default:
		return false
	}
}

// worker dispatches admitted requests. While the engine's SLO governor
// reports the foreground read tail over budget, the hi (read) queue drains
// strictly first — the front-end half of §4.4's "foreground outranks
// background" rule; otherwise the two queues are served fairly.
func (c *pconn) worker(wg *sync.WaitGroup) {
	defer wg.Done()
	hi, lo := c.hi, c.lo
	for hi != nil || lo != nil {
		var r *request
		var ok bool
		if hi != nil && c.s.governor().Threatened() {
			select {
			case r, ok = <-hi:
				if !ok {
					hi = nil
					continue
				}
			default:
				select {
				case r, ok = <-hi:
					if !ok {
						hi = nil
						continue
					}
				case r, ok = <-lo:
					if !ok {
						lo = nil
						continue
					}
				}
			}
		} else {
			select {
			case r, ok = <-hi:
				if !ok {
					hi = nil
					continue
				}
			case r, ok = <-lo:
				if !ok {
					lo = nil
					continue
				}
			}
		}
		c.run(r)
	}
}

// run executes one request and hands its completion to the writer.
func (c *pconn) run(r *request) {
	if hook := c.s.stall; hook != nil {
		hook(r.op, r.payload)
	}
	resp, err := c.s.dispatch(c.sess, r.op, r.payload)
	f := outFrame{op: r.op, tag: r.tag, req: r}
	if err != nil {
		f.resp = wire.ErrResponse(c.s.respCode(err), err.Error())
	} else {
		f.ok, f.blob, f.resp = true, r.op == wire.OpRead, resp
	}
	c.out <- f
}

// writer is the single goroutine that writes response frames. Each wake-up
// takes every completion that is ready, up to maxBatch, and sends them as
// one vectored write; when none is waiting it writes what it has, so a
// lone response is not held back. Each write is bounded by
// Config.WriteTimeout, so a client that stops reading cannot wedge the
// writer via TCP backpressure. After a write failure it tears the
// connection down but keeps draining, so every release still runs and no
// worker blocks on a dead connection.
func (c *pconn) writer(done chan struct{}) {
	defer close(done)
	failed := false
	batch := make([]outFrame, 0, maxBatch)
	for f := range c.out {
		batch = append(batch[:0], f)
	more:
		for len(batch) < maxBatch {
			select {
			case next, ok := <-c.out:
				if !ok {
					break more
				}
				batch = append(batch, next)
			default:
				break more
			}
		}
		if !failed {
			if err := c.writeBatch(batch); err != nil {
				failed = true
				if errors.Is(err, os.ErrDeadlineExceeded) {
					c.s.tel.WriteTimeouts.Add(1)
				}
				c.teardown()
				c.s.tel.AbnormalDisconnects.Add(1)
			}
		}
		for i := range batch {
			if r := batch[i].req; r != nil {
				r.release()
			}
			batch[i] = outFrame{}
		}
	}
}

// writeBatch sends a batch of response frames as one vectored write: each
// frame's header, status byte and blob length built in the writer's
// scratch, each result as the buffer dispatch returned.
func (c *pconn) writeBatch(batch []outFrame) error {
	head, vec := c.head[:0], c.vec[:0]
	for i := range batch {
		f := &batch[i]
		start := len(head)
		var err error
		if head, err = wire.AppendHeader(head, f.op, f.tag, f.payloadLen()); err != nil {
			clear(vec)
			return err
		}
		if f.ok {
			head = append(head, wire.StatusOK)
			if f.blob {
				head = binary.LittleEndian.AppendUint32(head, uint32(len(f.resp)))
			}
		}
		vec = append(vec, head[start:])
		if len(f.resp) > 0 {
			vec = append(vec, f.resp)
		}
	}
	c.bufs = vec
	err := c.conn.WriteBuffers(&c.bufs, c.s.cfg.WriteTimeout)
	clear(vec) // drop the results: the engine's read buffers are the caller's to free
	return err
}

// teardown marks the connection dead and wakes everything parked on it: the
// reader's blocking Read (via the close), the reader's admission wait (via
// down), and any wait on the global byte budget (via the broadcast). The
// reader's subsequent net.ErrClosed is not re-counted.
func (c *pconn) teardown() {
	c.downOnce.Do(func() {
		close(c.down)
		//lint:ignore errdrop the failure that triggered teardown is already counted; the close is best-effort
		c.conn.Close()
		c.s.budget.wake()
	})
}

// claimTag records a tag as in flight; false means it already is.
func (c *pconn) claimTag(tag uint32) bool {
	c.tagMu.Lock()
	defer c.tagMu.Unlock()
	if _, dup := c.tags[tag]; dup {
		return false
	}
	c.tags[tag] = struct{}{}
	return true
}

// dropTag retires a completed tag.
func (c *pconn) dropTag(tag uint32) {
	c.tagMu.Lock()
	delete(c.tags, tag)
	c.tagMu.Unlock()
}

// tenantWindow returns (lazily creating) the tenant's in-flight window.
// Reader-goroutine only.
func (c *pconn) tenantWindow(tenant uint64) chan struct{} {
	w, ok := c.tenants[tenant]
	if !ok {
		w = make(chan struct{}, c.s.cfg.TenantWindow)
		c.tenants[tenant] = w
	}
	return w
}

// tenantOf extracts the admission tenant: the target volume for data-path
// and volume-lifecycle ops, the shared control tenant (0) for everything
// else. A short payload yields tenant 0 and is rejected by dispatch.
func tenantOf(op byte, payload []byte) uint64 {
	switch op {
	case wire.OpRead, wire.OpWrite, wire.OpSnapshot, wire.OpClone, wire.OpDelete:
		d := wire.Dec{B: payload}
		return d.U64()
	case wire.OpWriteIdem:
		// The idempotency sequence number precedes the volume.
		d := wire.Dec{B: payload}
		d.U64() // seq
		return d.U64()
	}
	return 0
}

// admissionCost estimates a request's in-flight byte footprint: its payload
// plus, for reads, the response it will pin.
func admissionCost(op byte, payload []byte) int64 {
	cost := int64(len(payload)) + 512 // response floor
	if op == wire.OpRead {
		d := wire.Dec{B: payload}
		d.U64() // vol
		d.U64() // off
		n := d.U64()
		if d.OK() && n <= wire.MaxReadLen {
			cost += int64(n)
		}
	}
	return cost
}

// pooledBody is the size of a pooled request body: a 4 KiB write with its
// fixed fields fits, as does every control request. A larger body is
// allocated for its request and left to the collector.
const pooledBody = 4<<10 + 64

// poolCap bounds the bodies the pool keeps idle (about 1 MiB).
const poolCap = 256

// bodyPool lends request bodies. A body goes back exactly once, in its
// request's release: after the response is written, or when the frame
// fails admission. It is a mutex and a stack rather
// than a sync.Pool so that the most recently returned body is the next
// one lent, and so that lent can prove every body came back.
type bodyPool struct {
	mu   sync.Mutex
	free [][]byte // idle bodies, each of capacity pooledBody; at most poolCap
	lent int      // pooled bodies currently out
}

// get returns an n-byte body.
func (p *bodyPool) get(n int) []byte {
	if n > pooledBody {
		return make([]byte, n)
	}
	p.mu.Lock()
	p.lent++
	var b []byte
	if k := len(p.free); k > 0 {
		b = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	}
	p.mu.Unlock()
	if b == nil {
		b = make([]byte, pooledBody)
	}
	return b[:n]
}

// put returns a body get lent; one get allocated for its size alone is
// left to the collector.
func (p *bodyPool) put(b []byte) {
	if cap(b) != pooledBody {
		return
	}
	p.mu.Lock()
	p.lent--
	if len(p.free) < poolCap {
		p.free = append(p.free, b[:pooledBody])
	}
	p.mu.Unlock()
}

// byteBudget is the global in-flight payload budget. Admission blocks while
// granting n would exceed the cap; a single request larger than the whole
// cap is clamped so it can still run (alone).
type byteBudget struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int64
	used int64
}

func newByteBudget(capBytes int64) *byteBudget {
	b := &byteBudget{cap: capBytes}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *byteBudget) clamp(n int64) int64 {
	if n > b.cap {
		return b.cap
	}
	return n
}

// acquire grants n bytes at once if they fit. Otherwise it calls parked,
// then waits until they fit or aborted reports true (a dead connection or
// a server drain — the waiter is woken by wake and gives up instead of
// pinning budget it will never use). A waiter looks at aborted again
// before it takes bytes a release freed, so a wait that outlives an abort
// is never granted. It reports whether the bytes were granted.
func (b *byteBudget) acquire(n int64, parked func(), aborted func() bool) bool {
	n = b.clamp(n)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n > b.cap {
		parked()
		for b.used+n > b.cap && !aborted() {
			b.cond.Wait()
		}
		if aborted() {
			return false
		}
	}
	b.used += n
	return true
}

// wake re-checks every parked acquire. Called once an abort holds, since
// cond waiters can't select on it; it broadcasts under mu, so a waiter
// between its abort check and cond.Wait cannot miss it.
func (b *byteBudget) wake() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cond.Broadcast()
}

// release returns n bytes to the budget.
func (b *byteBudget) release(n int64) {
	n = b.clamp(n)
	b.mu.Lock()
	b.used -= n
	b.mu.Unlock()
	b.cond.Broadcast()
}
