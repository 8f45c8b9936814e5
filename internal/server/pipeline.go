package server

import (
	"errors"
	"net"
	"os"
	"sync"

	"purity/internal/controller"
	"purity/internal/wire"
)

// request is one admitted request.
type request struct {
	op      byte
	tag     uint32
	payload []byte
	// release returns the request's admission resources (tenant window
	// slot, byte budget, tag). Called exactly once, after the response is
	// written or discarded.
	release func()
}

// outFrame is one completed response bound for the writer goroutine.
type outFrame struct {
	op      byte
	tag     uint32
	resp    []byte // response payload (status byte first)
	release func()
}

// pconn is one connection past its hello: the reader goroutine (the
// connection's accept goroutine) admits requests, Config.Workers goroutines
// dispatch them out of order, and a single writer goroutine serializes
// completions onto the socket — the only place response frames are written,
// so frames can never interleave.
type pconn struct {
	s    *Server
	conn net.Conn
	sess *controller.Session // replay session from the hello (nil if none)

	hi  chan *request // foreground reads
	lo  chan *request // everything else
	out chan outFrame

	// down closes when the connection is torn down (writer failure), waking
	// any admission wait so a dead client can't pin a tenant slot or
	// in-flight bytes forever.
	down     chan struct{}
	downOnce sync.Once

	// tags tracks in-flight request tags for duplicate detection. Guarded
	// by tagMu (claimed by the reader, dropped at completion by the
	// writer's release callbacks).
	tagMu sync.Mutex
	tags  map[uint32]struct{}

	// tenants maps volume → in-flight window semaphore. The map itself is
	// touched only by the reader goroutine; the channels it holds are
	// shared with release callbacks.
	tenants map[uint64]chan struct{}
}

// servePipelined runs one connection to completion.
func (s *Server) servePipelined(conn net.Conn, sess *controller.Session) {
	c := &pconn{
		s:       s,
		conn:    conn,
		sess:    sess,
		hi:      make(chan *request, s.cfg.QueueDepth),
		lo:      make(chan *request, s.cfg.QueueDepth),
		out:     make(chan outFrame, s.cfg.QueueDepth),
		down:    make(chan struct{}),
		tags:    make(map[uint32]struct{}),
		tenants: make(map[uint64]chan struct{}),
	}
	var workers sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
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
func (c *pconn) readLoop() {
	for {
		c.s.touchIdle(c.conn)
		op, tag, payload, err := wire.ReadTaggedFrame(c.conn)
		if err != nil {
			c.s.countReadErr(err)
			return
		}
		if !c.claimTag(tag) {
			// A tag reused while still in flight would make two responses
			// carry the same tag — the initiator could never match them.
			// Report once, then kill the connection (the stream is
			// unsynchronized from the server's point of view).
			c.s.tel.DuplicateTags.Inc()
			c.out <- outFrame{op: op, tag: tag,
				resp: wire.ErrResponse(wire.CodeDuplicateTag, "tag already in flight")}
			return
		}
		waited := false
		ten := c.tenantWindow(tenantOf(op, payload))
		select {
		case ten <- struct{}{}:
		default:
			waited = true
			c.s.tel.AdmissionWaits.Inc()
			// The wait is abortable: a connection torn down by its writer,
			// or a server drain, must not leave this goroutine parked on a
			// slot that will never free (the admission-slot leak).
			select {
			case ten <- struct{}{}:
			case <-c.down:
				c.abortAdmission(tag)
				return
			case <-c.s.drainCh:
				c.abortAdmission(tag)
				return
			}
		}
		cost := admissionCost(op, payload)
		granted, budgetWaited := c.s.budget.acquire(cost, c.down, c.s.drainCh)
		if budgetWaited && !waited {
			c.s.tel.AdmissionWaits.Inc()
		}
		if !granted {
			<-ten
			c.abortAdmission(tag)
			return
		}
		r := &request{op: op, tag: tag, payload: payload, release: func() {
			<-ten
			c.s.budget.release(cost)
			c.dropTag(tag)
		}}
		if op == wire.OpRead {
			c.hi <- r
		} else {
			c.lo <- r
		}
	}
}

// abortAdmission unwinds a partially-admitted request when the wait is cut
// short; the un-responded request is dropped (the client's reconnect path
// replays it).
func (c *pconn) abortAdmission(tag uint32) {
	c.s.tel.AdmissionAborts.Inc()
	c.dropTag(tag)
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
	var frame []byte
	if err != nil {
		frame = wire.ErrResponse(c.s.respCode(err), err.Error())
	} else {
		frame = wire.OKResponse(resp)
	}
	c.out <- outFrame{op: r.op, tag: r.tag, resp: frame, release: r.release}
}

// writer is the single goroutine that writes response frames. Each write is
// bounded by Config.WriteTimeout, so a client that stops reading cannot
// wedge the writer via TCP backpressure. After a write failure it tears the
// connection down but keeps draining, so every release callback still runs
// and no worker blocks on a dead connection.
func (c *pconn) writer(done chan struct{}) {
	defer close(done)
	failed := false
	for f := range c.out {
		if !failed {
			c.s.touchWrite(c.conn)
			if err := wire.WriteTaggedFrame(c.conn, f.op, f.tag, f.resp); err != nil {
				failed = true
				if errors.Is(err, os.ErrDeadlineExceeded) {
					c.s.tel.WriteTimeouts.Inc()
				}
				c.teardown()
				c.s.tel.AbnormalDisconnects.Inc()
			}
		}
		if f.release != nil {
			f.release()
		}
	}
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

// acquire blocks until n bytes fit, or until any abort channel closes (a
// dead connection or a server drain — the waiter is woken by wake and gives
// up instead of pinning budget it will never use). It reports whether the
// bytes were granted and whether it had to wait.
func (b *byteBudget) acquire(n int64, abort ...<-chan struct{}) (granted, waited bool) {
	n = b.clamp(n)
	aborted := func() bool {
		for _, ch := range abort {
			select {
			case <-ch:
				return true
			default:
			}
		}
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.used+n > b.cap {
		if aborted() {
			return false, waited
		}
		waited = true
		b.cond.Wait()
	}
	b.used += n
	return true, waited
}

// wake re-checks every parked acquire. Called when an abort channel closes,
// since cond waiters can't select on it.
func (b *byteBudget) wake() { b.cond.Broadcast() }

// release returns n bytes to the budget.
func (b *byteBudget) release(n int64) {
	n = b.clamp(n)
	b.mu.Lock()
	b.used -= n
	b.mu.Unlock()
	b.cond.Broadcast()
}
