// HA initiator: the transparent-retry side of controller failover. An
// HAClient holds one live pipelined connection to whichever controller port
// currently answers, and survives everything the chaos injector (and a real
// failover) throws at it:
//
//   - transport errors and per-op deadline hits condemn the connection and
//     reconnect with capped exponential backoff plus jitter;
//   - CodeNotPrimary redirects rotate to the peer controller's address;
//   - CodeRetryable (mid-failover, draining) backs off and retries;
//   - writes carry session-scoped idempotency sequence numbers, so a replay
//     after an ambiguous failure (connection died between request and ack)
//     returns the recorded outcome instead of applying twice.
//
// The session rides the controller Pair, not a single server, which is why
// a reconnect to the surviving controller still resumes it.
package client

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"purity/internal/lockrank"
	"purity/internal/sim"
	"purity/internal/wire"
)

// HAConfig tunes the HA initiator.
type HAConfig struct {
	// Addrs are the controller ports, in preference order; redirects and
	// connect failures rotate through them.
	Addrs []string
	// Dial opens transports (default net.Dial; chaos.Injector.Dial fits).
	Dial DialFunc
	// OpTimeout is the per-op deadline (default 2 s). A hit condemns the
	// connection and replays the op on a fresh one.
	OpTimeout time.Duration
	// MaxAttempts bounds tries per op before giving up (default 64) — with
	// backoff this comfortably covers a full failover episode.
	MaxAttempts int
	// BackoffBase/BackoffCap shape the retry backoff (default 5 ms / 500 ms).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed feeds the jitter stream (deterministic, like the chaos injector).
	Seed uint64
}

func (c HAConfig) normalize() HAConfig {
	if c.Dial == nil {
		c.Dial = net.Dial
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 64
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 500 * time.Millisecond
	}
	return c
}

// HAStats counts the resilience machinery's activations.
type HAStats struct {
	Connects       atomic.Int64 // connections established (first + re)
	Redirects      atomic.Int64 // CodeNotPrimary answers that rotated ports
	Retries        atomic.Int64 // op attempts beyond the first
	Replays        atomic.Int64 // idempotent writes resent with their original seq
	DeadlineAborts atomic.Int64 // ops abandoned by the per-op deadline
	StaleDials     atomic.Int64 // dialed connections rejected for carrying a second session
}

// ErrHAClosed fails ops issued after Close.
var ErrHAClosed = errors.New("client: HA client closed")

// errStaleDial fails a connect whose hello opened a second session; the op
// retries and its next dial resumes the first.
var errStaleDial = errors.New("client: dialed connection opened a second session")

// HAClient is a failover-transparent initiator. Safe for concurrent use;
// in-flight depth is simply how many goroutines call it at once (keep that
// below the server's session window, see controller.DefaultSessionWindow).
type HAClient struct {
	cfg   HAConfig
	seq   atomic.Uint64 // idempotency sequence numbers, one per logical write
	stats HAStats

	mu      lockrank.Mutex[lockrank.ClientHAClientMu]
	c       *Client // live connection, nil while down
	addrIdx int
	session uint64
	rng     *sim.Rand
	closed  bool
}

// NewHA returns an HA initiator over the given controller addresses. The
// first connection is made lazily, so constructing one while the array is
// mid-failover is fine.
func NewHA(cfg HAConfig) (*HAClient, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("client: HAConfig.Addrs is empty")
	}
	cfg = cfg.normalize()
	return &HAClient{cfg: cfg, rng: sim.NewRand(cfg.Seed + 1)}, nil
}

// Stats exposes the resilience counters.
func (h *HAClient) Stats() *HAStats { return &h.stats }

// Session returns the replay session ID (0 until the first connection).
func (h *HAClient) Session() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.session
}

// Close condemns the current connection and fails all future ops.
func (h *HAClient) Close() error {
	h.mu.Lock()
	c := h.c
	h.c = nil
	h.closed = true
	h.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// conn returns the live connection, dialing (and resuming the session) if
// necessary. A connect failure rotates to the next address so the retry
// lands on the peer port.
func (h *HAClient) conn() (*Client, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrHAClosed
	}
	if h.c != nil {
		c := h.c
		h.mu.Unlock()
		return c, nil
	}
	addr := h.cfg.Addrs[h.addrIdx%len(h.cfg.Addrs)]
	session := h.session
	h.mu.Unlock()

	// Dial outside the lock: a slow (or blackholed) handshake must not wedge
	// Close and concurrent ops. The hello exchange is bounded by OpTimeout.
	c, err := DialSession(addr, h.cfg.Dial, session, h.cfg.OpTimeout)

	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.addrIdx++
		return nil, err
	}
	// A dial that completed may still have lost a race while it ran.
	switch {
	case h.closed:
		err = ErrHAClosed
	case h.c != nil:
		// A concurrent op already reconnected; use the winner.
	case h.session != 0 && c.Session() != h.session:
		// This dial read session 0 before another dial established the
		// session, so the server opened a fresh one for it — and the
		// winner's connection has since been condemned. Adopting this one
		// would resend writes already applied under the first session in a
		// session that has no record of them: applied twice. The op
		// retries, and its next dial resumes the first session.
		h.stats.StaleDials.Add(1)
		err = errStaleDial
	default:
		c.SetOpTimeout(h.cfg.OpTimeout)
		h.session = c.Session()
		h.c = c
		h.stats.Connects.Add(1)
		return c, nil
	}
	//lint:ignore errdrop closing a connection that lost a race (with Close, with another dial, or with the session being established); what it lost to is the answer
	c.Close()
	return h.c, err
}

// condemn drops a connection that failed (only if it is still the current
// one — a concurrent op may already have reconnected). rotate additionally
// moves to the next address, for NotPrimary redirects.
func (h *HAClient) condemn(c *Client, rotate bool) {
	h.mu.Lock()
	if h.c == c {
		h.c = nil
	}
	if rotate {
		h.addrIdx++
	}
	h.mu.Unlock()
	//lint:ignore errdrop the op failure that triggered condemnation is the error that matters; close is best-effort
	c.Close()
}

// backoff sleeps the capped-exponential, jittered retry delay and returns
// the next delay.
func (h *HAClient) backoff(cur time.Duration) time.Duration {
	next := cur * 2
	if cur == 0 {
		next = h.cfg.BackoffBase
	}
	if next > h.cfg.BackoffCap {
		next = h.cfg.BackoffCap
	}
	h.mu.Lock()
	jitter := time.Duration(h.rng.Int63n(int64(next)/2 + 1))
	h.mu.Unlock()
	time.Sleep(next/2 + jitter)
	return next
}

// do runs one logical op through the retry machinery. f runs against the
// current connection and may run again after an ambiguous failure, so every
// op routed through here must be idempotent by construction — a read, or a
// write carrying a session seq.
func (h *HAClient) do(f func(*Client) error) error {
	var delay time.Duration
	var lastErr error
	for attempt := 0; attempt < h.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			h.stats.Retries.Add(1)
			delay = h.backoff(delay)
		}
		c, err := h.conn()
		if err != nil {
			if errors.Is(err, ErrHAClosed) {
				return err
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// A blackholed handshake counts as a deadline abort too.
				h.stats.DeadlineAborts.Add(1)
			}
			lastErr = err
			continue
		}
		err = f(c)
		if err == nil {
			return nil
		}
		lastErr = err
		var re *wire.RemoteError
		if errors.As(err, &re) {
			switch re.Code {
			case wire.CodeNotPrimary:
				// This controller is fenced: re-resolve to the survivor.
				h.stats.Redirects.Add(1)
				h.condemn(c, true)
			case wire.CodeRetryable:
				// Mid-failover or draining: the op was not applied. Keep the
				// connection, back off, retry.
			default:
				// A definitive server answer (bad volume, too large, ...).
				return err
			}
			continue
		}
		// Transport failure or deadline: ambiguous — the op may or may not
		// have been applied; replaying it is safe (see above).
		if errors.Is(err, os.ErrDeadlineExceeded) {
			h.stats.DeadlineAborts.Add(1)
		}
		h.condemn(c, false)
	}
	return fmt.Errorf("client: gave up after %d attempts: %w", h.cfg.MaxAttempts, lastErr)
}

// WriteAt writes through the idempotent-replay path: the op gets a session
// sequence number once, and every retry resends the SAME seq, so the array
// applies it at most once no matter how many times the wire eats the ack.
func (h *HAClient) WriteAt(vol uint64, off int64, data []byte) error {
	seq := h.seq.Add(1)
	first := true
	return h.do(func(c *Client) error {
		if !first {
			h.stats.Replays.Add(1)
		}
		first = false
		return c.WriteIdem(seq, vol, off, data)
	})
}

// ReadAt reads; naturally idempotent, so retries are unrestricted.
func (h *HAClient) ReadAt(vol uint64, off int64, n int) ([]byte, error) {
	var out []byte
	err := h.do(func(c *Client) error {
		var e error
		out, e = c.ReadAt(vol, off, n)
		return e
	})
	return out, err
}
