// Package server exposes an array's volumes over TCP using the wire
// protocol — the repository's stand-in for the paper's iSCSI/FibreChannel
// front end (§3, §4.1). Run two servers over one controller.Pair (one per
// Role) to get the active-active behaviour: clients may connect to either
// port; the secondary forwards to the primary at an interconnect-latency
// cost.
//
// There is one protocol (see package wire): a connection opens with an
// OpHello at version wire.ProtoTagged or later and then carries many tagged
// requests in flight. A first frame that is anything else — a non-hello op,
// a hello at an older version, or bytes that do not parse as a tagged frame,
// which is what the retired untagged v1 framing looks like — is counted in
// MalformedFrames and the connection closed, with no reply and nothing
// dispatched.
//
// A connection is three kinds of goroutine — a reader that admits requests
// (per-tenant in-flight windows plus a global byte budget, both exerting
// backpressure rather than dropping), a bounded worker set that dispatches
// into the engine out of order, and a single writer that serializes
// completions back onto the socket so response frames can never
// interleave. The engine's write path runs compression and
// dedup hashing before taking any lock (core.Array.WriteAt), so N
// in-flight requests use N cores for the CPU-heavy stages, and the commit
// itself shards into Config.CommitLanes per-volume lanes (DESIGN.md,
// "Write path").
//
// Scheduling honours the paper's §4.4 tail SLO: while the engine's governor
// reports the foreground read p99.9 over budget, workers drain the
// foreground read queue before anything else.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/iosched"
	"purity/internal/sim"
	"purity/internal/telemetry"
	"purity/internal/wire"
)

// Config tunes the pipelined front end. The zero value takes defaults.
type Config struct {
	// Workers bounds the per-connection dispatch goroutines (in-flight
	// requests actually executing; more are queued).
	Workers int
	// QueueDepth bounds each per-connection dispatch queue; a full queue
	// backpressures the connection's reader.
	QueueDepth int
	// TenantWindow caps in-flight requests per tenant (per volume) on one
	// connection; an over-window tenant backpressures the connection.
	TenantWindow int
	// MaxInflightBytes is the global (cross-connection) budget for
	// in-flight request+response payload bytes.
	MaxInflightBytes int64
	// Pace, when true, holds each response until the engine's simulated
	// service time has elapsed in wall time, so the served array exhibits
	// its device model's latency instead of raw loopback+CPU speed.
	// In-flight requests on one connection overlap these waits, so a paced
	// server shows what queue depth buys (E14).
	Pace bool
	// IdleTimeout bounds how long a connection may sit between frames (and
	// how long a torn frame may dribble). Without it a client that dies
	// mid-frame — or simply stops sending — pins its goroutines, and with
	// them any admission resources, forever. Negative falls back to the
	// wedge backstop (a deadline always fires eventually); zero takes the
	// default.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write. Without it a stalled client
	// that stops reading wedges the connection's single writer goroutine via
	// TCP backpressure, and every release callback queued behind the stuck
	// frame — tenant-window slots and in-flight bytes — leaks until the
	// socket dies on its own. Negative falls back to the wedge backstop;
	// zero takes the default.
	WriteTimeout time.Duration
}

// DefaultConfig sizes the front end for the scaled-down arrays in this
// repository.
func DefaultConfig() Config { return Config{}.normalize() }

func (c Config) normalize() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TenantWindow <= 0 {
		c.TenantWindow = 32
	}
	if c.MaxInflightBytes <= 0 {
		c.MaxInflightBytes = 64 << 20
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	return c
}

// Server serves one controller's port.
type Server struct {
	pair *controller.Pair
	via  controller.Role
	cfg  Config

	epoch  time.Time // wall-clock origin for the simulated timeline
	tel    *telemetry.Frontend
	budget *byteBudget

	// Lifecycle state for graceful drain: every listener Serve is running on
	// and every live connection, so Shutdown can stop accepts and wake
	// parked readers. handlers counts connection goroutines.
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	drainCh   chan struct{}
	handlers  sync.WaitGroup

	// stall, when set, runs in a worker just before dispatch — a test hook
	// for forcing a request to be slow so out-of-order completion and
	// admission backpressure are provable.
	stall func(op byte, payload []byte)
}

// New returns a server for the given controller of a pair.
func New(pair *controller.Pair, via controller.Role) *Server {
	return NewWithConfig(pair, via, DefaultConfig())
}

// NewWithConfig returns a server with explicit front-end tuning.
func NewWithConfig(pair *controller.Pair, via controller.Role, cfg Config) *Server {
	cfg = cfg.normalize()
	return &Server{
		pair:      pair,
		via:       via,
		cfg:       cfg,
		epoch:     time.Now(),
		tel:       &telemetry.Frontend{},
		budget:    newByteBudget(cfg.MaxInflightBytes),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		drainCh:   make(chan struct{}),
	}
}

// Frontend exposes the server's wire-level health counters.
func (s *Server) Frontend() *telemetry.Frontend { return s.tel }

// now maps wall time onto the simulated timeline, so a served array's
// device model experiences realistic inter-arrival times.
func (s *Server) now() sim.Time { return sim.Time(time.Since(s.epoch).Nanoseconds()) }

// governor returns the live engine's SLO governor (nil-safe: a nil Governor
// never reports Threatened).
func (s *Server) governor() *iosched.Governor {
	if a := s.pair.Array(); a != nil {
		return a.Governor()
	}
	return nil
}

// Serve accepts connections until the listener closes. Transient Accept
// failures (EMFILE under connection storms, ECONNABORTED races) no longer
// kill the listener: they retry with capped exponential backoff — reset to
// zero by every successful accept, so one bad burst doesn't tax the next —
// and Serve returns only once the listener itself is closed.
func (s *Server) Serve(l net.Listener) error {
	if !s.trackListener(l) {
		//lint:ignore errdrop the server is already drained; refusing the listener is the point
		l.Close()
		return nil
	}
	defer s.untrackListener(l)
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			s.tel.AcceptRetries.Inc()
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handle(conn)
		}()
	}
}

// trackListener registers a listener for Shutdown; false means the server
// has already drained and the listener must not accept.
func (s *Server) trackListener(l net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.listeners[l] = struct{}{}
	return true
}

func (s *Server) untrackListener(l net.Listener) {
	s.mu.Lock()
	delete(s.listeners, l)
	s.mu.Unlock()
}

// trackConn registers a live connection for Shutdown; false means the
// server is draining and the connection must be refused.
func (s *Server) trackConn(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// wedgeBackstop is the deadline used when the operator sets a timeout
// negative ("disabled"): long enough to never fire in legitimate traffic,
// but finite, so even a disabled timeout cannot let a dead peer pin a
// goroutine — and the admission slots it holds — for the life of the
// process. A deadline must exist on every path; §5's availability argument
// does not survive "unless configured otherwise".
const wedgeBackstop = 24 * time.Hour

// touchIdle arms the connection's idle deadline before a blocking read, on
// every path. After Shutdown begins the deadline is already-expired, so a
// reader that loops around for another frame exits instead of re-arming.
func (s *Server) touchIdle(conn net.Conn) {
	if s.draining() {
		//lint:ignore errdrop a conn that can't set deadlines is dying anyway; the read surfaces it
		conn.SetReadDeadline(time.Now())
		return
	}
	d := s.cfg.IdleTimeout
	if d <= 0 {
		d = wedgeBackstop
	}
	//lint:ignore errdrop a conn that can't set deadlines is dying anyway; the read surfaces it
	conn.SetReadDeadline(time.Now().Add(d))
}

// touchWrite arms the connection's per-response write deadline, on every
// path.
func (s *Server) touchWrite(conn net.Conn) {
	d := s.cfg.WriteTimeout
	if d <= 0 {
		d = wedgeBackstop
	}
	//lint:ignore errdrop a conn that can't set deadlines is dying anyway; the write surfaces it
	conn.SetWriteDeadline(time.Now().Add(d))
}

// Shutdown drains the server gracefully: listeners close (no new accepts),
// every parked reader and admission wait is woken so no new requests are
// admitted, workers finish what was already admitted, and each connection's
// writer flushes its completions — running every release, so no admission
// slot or in-flight byte survives the drain. Connections still alive after
// the timeout are force-closed. Idempotent; later calls return immediately.
func (s *Server) Shutdown(timeout time.Duration) error {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.drainCh)
	for l := range s.listeners {
		//lint:ignore errdrop closing the listener is best-effort; Serve exits on net.ErrClosed either way
		l.Close()
	}
	for c := range s.conns {
		// Expire the read deadline: a reader blocked on a frame wakes with
		// a timeout, stops admitting, and starts the connection's drain.
		//lint:ignore errdrop a conn that can't set deadlines is torn down by the force-close below
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	// Wake admission waits parked on the global byte budget.
	s.budget.wake()

	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			//lint:ignore errdrop force-close after the drain deadline; nothing left to report to
			c.Close()
		}
		s.mu.Unlock()
		<-done
		err = fmt.Errorf("server: drain exceeded %v; remaining connections force-closed", timeout)
	}
	s.tel.Drains.Inc()
	s.tel.DrainNanos.Add(time.Since(start).Nanoseconds())
	return err
}

// handle opens a connection: the first frame must be an OpHello at version
// wire.ProtoTagged or later (package comment), which for HA initiators also
// binds a replay session; every frame after it is servePipelined's.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	if !s.trackConn(conn) {
		return
	}
	defer s.untrackConn(conn)
	s.touchIdle(conn)
	op, tag, payload, err := wire.ReadTaggedFrame(conn)
	if err != nil {
		s.countReadErr(err)
		return
	}
	h, err := wire.DecodeHello(payload)
	if op != wire.OpHello || err != nil || h.Version < wire.ProtoTagged {
		s.tel.MalformedFrames.Inc()
		return
	}
	// The session table lives on the Pair, so a session survives
	// reconnecting to the peer port.
	var sess *controller.Session
	var sid uint64
	if h.HasSession {
		sess = s.pair.Sessions().Resume(h.Session)
		sid = sess.ID
		s.tel.SessionsBound.Inc()
	}
	s.touchWrite(conn)
	resp := wire.OKResponse(wire.EncodeHello(wire.ProtoTagged, sid, h.HasSession))
	if wire.WriteTaggedFrame(conn, wire.OpHello, tag, resp) != nil {
		s.tel.AbnormalDisconnects.Inc()
		return
	}
	s.tel.Conns.Inc()
	s.servePipelined(conn, sess)
}

// countReadErr attributes a connection-terminating read failure: clean EOFs
// at a frame boundary are normal; everything else lands in a counter that
// used to not exist (the old server dropped all of these silently).
func (s *Server) countReadErr(err error) {
	switch {
	case err == nil || errors.Is(err, io.EOF):
		// Clean shutdown between frames.
	case errors.Is(err, wire.ErrFrameTooLarge):
		s.tel.OversizedFrames.Inc()
	case errors.Is(err, wire.ErrBadFrame):
		s.tel.MalformedFrames.Inc()
	case errors.Is(err, os.ErrDeadlineExceeded):
		// The idle deadline reaped the connection (or woke its reader for a
		// drain, which isn't worth a counter).
		if !s.draining() {
			s.tel.IdleTimeouts.Inc()
		}
	case errors.Is(err, net.ErrClosed):
		// We closed it (server shutdown or a writer failure already
		// counted).
	default:
		// Partial frame, connection reset, timeout: the client vanished
		// mid-stream.
		s.tel.AbnormalDisconnects.Inc()
	}
}

// Typed dispatch failures, so responses can carry structured codes.
var (
	// ErrReadTooLarge rejects a client-supplied read length beyond
	// wire.MaxReadLen. The length field is attacker controlled; before this
	// check a single 17-byte frame could demand a multi-GiB allocation.
	ErrReadTooLarge = errors.New("server: read length exceeds wire.MaxReadLen")
	// ErrUnknownOp rejects an unrecognized opcode.
	ErrUnknownOp = errors.New("server: unknown opcode")
	// ErrNoSession rejects an idempotent write on a connection whose hello
	// did not negotiate a session — without one there is no replay window to
	// give the op its at-most-once meaning.
	ErrNoSession = errors.New("server: idempotent write outside a session")
)

// errCode maps a dispatch failure to its wire error code.
func errCode(err error) uint32 {
	var d *wire.RemoteError
	switch {
	case errors.Is(err, ErrReadTooLarge):
		return wire.CodeTooLarge
	case errors.Is(err, ErrUnknownOp):
		return wire.CodeUnknownOp
	case errors.Is(err, ErrNoSession):
		return wire.CodeBadPayload
	case errors.Is(err, controller.ErrNotActive):
		return wire.CodeNotPrimary
	case errors.Is(err, controller.ErrUnavailable):
		return wire.CodeRetryable
	case errors.Is(err, io.ErrUnexpectedEOF):
		return wire.CodeBadPayload
	case errors.As(err, &d):
		return d.Code
	default:
		return wire.CodeInternal
	}
}

// respCode maps a dispatch failure to its wire code and counts the
// HA-relevant refusals on the way out.
func (s *Server) respCode(err error) uint32 {
	code := errCode(err)
	switch code {
	case wire.CodeNotPrimary:
		s.tel.NotPrimaryRedirects.Inc()
	case wire.CodeRetryable:
		s.tel.RetryableRejects.Inc()
	}
	return code
}

// definitiveOutcome classifies a write outcome for the idempotency window:
// fenced-controller and mid-failover refusals mean the op was NOT applied,
// so they must not be recorded — a later replay gets to apply for real.
// Everything else (success, or a real engine rejection) is final.
func definitiveOutcome(err error) bool {
	return !errors.Is(err, controller.ErrUnavailable) &&
		!errors.Is(err, controller.ErrNotActive)
}

// pace holds the caller until a data-path op's simulated completion time has
// elapsed in wall time (no-op unless Config.Pace). The cap bounds the damage
// of a simulated-device convoy: pacing demonstrates latency, it must not
// wedge a worker.
func (s *Server) pace(at, done sim.Time) {
	if !s.cfg.Pace || done <= at {
		return
	}
	d := time.Duration(done - at)
	if d > 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	time.Sleep(d)
}

// badPayload counts an undecodable request payload and propagates its
// decode error.
func (s *Server) badPayload(err error) error {
	s.tel.MalformedFrames.Inc()
	return err
}

// dispatch runs one request against the engine. Called concurrently from
// every connection's workers; the Pair and the engine
// synchronize internally. sess is the connection's replay session (nil on
// session-less connections).
func (s *Server) dispatch(sess *controller.Session, op byte, payload []byte) ([]byte, error) {
	at := s.now()
	// Resolve the engine through the fencing-aware view: a demoted
	// controller answers ErrNotActive (→ CodeNotPrimary) so clients
	// re-resolve to the survivor instead of reading stale state.
	a, err := s.pair.Engine(s.via)
	if err != nil {
		return nil, err
	}
	d := wire.Dec{B: payload}
	switch op {
	case wire.OpCreateVolume:
		name := d.Str()
		size := d.U64()
		if !d.OK() {
			return nil, s.badPayload(d.Err)
		}
		id, _, err := a.CreateVolume(at, name, int64(size))
		if err != nil {
			return nil, err
		}
		var e wire.Enc
		return e.U64(uint64(id)).B, nil

	case wire.OpOpenVolume:
		name := d.Str()
		if !d.OK() {
			return nil, s.badPayload(d.Err)
		}
		infos, _, err := a.Volumes(at)
		if err != nil {
			return nil, err
		}
		for _, info := range infos {
			if info.Name == name {
				var e wire.Enc
				return e.U64(uint64(info.ID)).U64(uint64(info.SizeBytes)).B, nil
			}
		}
		return nil, core.ErrNoSuchVolume

	case wire.OpListVolumes:
		infos, _, err := a.Volumes(at)
		if err != nil {
			return nil, err
		}
		var e wire.Enc
		e.U64(uint64(len(infos)))
		for _, info := range infos {
			snap := uint64(0)
			if info.Snapshot {
				snap = 1
			}
			e.U64(uint64(info.ID)).Str(info.Name).U64(uint64(info.SizeBytes)).U64(snap)
		}
		return e.B, nil

	case wire.OpRead:
		vol := d.U64()
		off := d.U64()
		n := d.U64()
		if !d.OK() {
			return nil, s.badPayload(d.Err)
		}
		// Clamp the client-supplied length BEFORE it sizes an allocation:
		// n is attacker controlled and anything over MaxReadLen could not
		// be framed in a response anyway.
		if n > wire.MaxReadLen {
			s.tel.RejectedReads.Inc()
			return nil, fmt.Errorf("%w: %d > %d", ErrReadTooLarge, n, wire.MaxReadLen)
		}
		data, done, err := s.pair.ReadAt(at, s.via, core.VolumeID(vol), int64(off), int(n))
		if err != nil {
			return nil, err
		}
		s.pace(at, done)
		var e wire.Enc
		return e.Bytes(data).B, nil

	case wire.OpWrite:
		vol := d.U64()
		off := d.U64()
		// Dec.Bytes aliases the frame buffer; the engine retains write data
		// beyond this dispatch (NVRAM mirrors, dedup candidates), and v2
		// frames are handled by concurrent workers — copy at the boundary.
		data := append([]byte(nil), d.Bytes()...)
		if !d.OK() {
			return nil, s.badPayload(d.Err)
		}
		done, err := s.pair.WriteAt(at, s.via, core.VolumeID(vol), int64(off), data)
		if err != nil {
			return nil, err
		}
		s.pace(at, done)
		return nil, nil

	case wire.OpWriteIdem:
		seq := d.U64()
		vol := d.U64()
		off := d.U64()
		data := append([]byte(nil), d.Bytes()...)
		if !d.OK() {
			return nil, s.badPayload(d.Err)
		}
		if sess == nil {
			return nil, ErrNoSession
		}
		// At-most-once: the session window decides whether this (seq) is a
		// fresh op or a replay of one already applied. A replay returns the
		// recorded outcome without touching the engine.
		err, _ := sess.Do(seq, func() error {
			done, werr := s.pair.WriteAt(at, s.via, core.VolumeID(vol), int64(off), data)
			if werr == nil {
				s.pace(at, done)
			}
			return werr
		}, definitiveOutcome)
		return nil, err

	case wire.OpSnapshot:
		vol := d.U64()
		name := d.Str()
		if !d.OK() {
			return nil, s.badPayload(d.Err)
		}
		id, _, err := a.Snapshot(at, core.VolumeID(vol), name)
		if err != nil {
			return nil, err
		}
		var e wire.Enc
		return e.U64(uint64(id)).B, nil

	case wire.OpClone:
		snap := d.U64()
		name := d.Str()
		if !d.OK() {
			return nil, s.badPayload(d.Err)
		}
		id, _, err := a.Clone(at, core.VolumeID(snap), name)
		if err != nil {
			return nil, err
		}
		var e wire.Enc
		return e.U64(uint64(id)).B, nil

	case wire.OpDelete:
		vol := d.U64()
		if !d.OK() {
			return nil, s.badPayload(d.Err)
		}
		_, err := a.Delete(at, core.VolumeID(vol))
		return nil, err

	case wire.OpStats:
		st := a.Stats()
		gov := a.Governor()
		text := fmt.Sprintf(
			"writes=%d reads=%d\nwrite latency: %s\nread latency: %s\n"+
				"reduction=%.2fx (logical=%d physical=%d dedup=%d)\n"+
				"dedup hits=%d misses=%d packed=%d\nsegments=%d frontierAUs=%d freeAUs=%d\n"+
				"gc runs=%d checkpoints=%d frontier writes=%d\n"+
				"flash: host W=%d flash W=%d erases=%d reads stalled=%d queued=%d\n"+
				"hedged reads=%d wins=%d busy avoided=%d\n"+
				"slo: budget=%v p99.9=%v threatened=%v deferrals=%d scrub deferrals=%d\n"+
				"frontend: %s\n",
			st.Writes, st.Reads,
			st.WriteLatency.Summary(), st.ReadLatency.Summary(),
			st.ReductionRatio, st.Reduction.LogicalBytes, st.Reduction.PhysicalBytes, st.Reduction.DedupBytes,
			st.DedupHits, st.DedupMisses, st.PackedBytes, st.Segments, st.FrontierAUs, st.FreeAUs,
			st.GCRuns, st.Checkpoints, st.FrontierWrites,
			st.FlashStats.HostBytesWritten, st.FlashStats.FlashBytesWritten, st.FlashStats.Erases,
			st.FlashStats.StalledReads, st.FlashStats.QueuedReads,
			st.HedgedReads, st.HedgeWins, st.SegRead.BusyAvoided,
			gov.Budget(), gov.P999(), gov.Threatened(), gov.Deferrals(), st.ScrubDeferrals,
			s.tel.Summary(),
		)
		var e wire.Enc
		return e.Str(text).B, nil

	case wire.OpFlush:
		_, err := a.FlushAll(at)
		return nil, err

	case wire.OpGC:
		rep, _, err := a.RunGC(at)
		if err != nil {
			return nil, err
		}
		var e wire.Enc
		return e.Str(fmt.Sprintf("%+v", rep)).B, nil

	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownOp, op)
	}
}
