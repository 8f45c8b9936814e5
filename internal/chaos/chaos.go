// Package chaos is a deterministic network-fault injector: a wrapping
// net.Conn / net.Listener that injects the failure modes a block front end
// must survive — connection resets, torn (partial) frame writes, delayed
// delivery, stalls, and blackholes where bytes simply stop arriving.
//
// Like crashpoint, it is seeded and deterministic: every connection gets
// its own rng stream derived from (Config.Seed, connection ordinal), so a
// given connection makes the same fault decisions at the same byte-stream
// positions on every run. (Cross-connection interleaving still follows the
// scheduler, as it does for any concurrent test; the per-connection fault
// schedule is what reproduces.)
//
// Faults fire on the wrapped side's I/O calls:
//
//   - Write: Reset (close before writing), Tear (write a strict prefix of
//     the buffer, then close — the peer sees a frame cut mid-body), Delay.
//   - Read: Delay, Stall (long sleep, then deliver), Blackhole (bytes never
//     arrive; the call blocks until the connection closes or its read
//     deadline fires).
//
// All probabilities are per-call. A zero Config injects nothing, so a rig
// can be built unconditionally and armed by flipping the config.
package chaos

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"purity/internal/lockrank"
	"purity/internal/sim"
)

// ErrInjected marks a failure manufactured by the injector (resets and torn
// writes). errors.Is(err, ErrInjected) distinguishes injected faults from
// real ones in assertions.
var ErrInjected = errors.New("chaos: injected fault")

// Config arms the injector. Probabilities are per Read/Write call in [0,1].
type Config struct {
	Seed uint64

	// Write-side faults.
	ResetProb float64 // close the connection instead of writing
	TearProb  float64 // write a strict prefix, then close

	// Read-side faults.
	DelayProb     float64       // sleep Delay, then proceed
	Delay         time.Duration //
	StallProb     float64       // sleep Stall, then proceed
	Stall         time.Duration //
	BlackholeProb float64       // block until close or read deadline
}

// Stats counts injected faults, for experiment reporting.
type Stats struct {
	Conns      atomic.Int64
	Resets     atomic.Int64
	TornWrites atomic.Int64
	Delays     atomic.Int64
	Stalls     atomic.Int64
	Blackholes atomic.Int64
}

// Injector hands out fault-wrapped connections and listeners.
type Injector struct {
	mu    lockrank.Mutex[lockrank.ChaosInjectorMu]
	cfg   Config
	conns uint64
	stats Stats
}

// New returns an injector armed with cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg}
}

// Stats exposes the fault counters.
func (i *Injector) Stats() *Stats { return &i.stats }

// SetConfig swaps the fault schedule (e.g. arm faults only for a test's
// middle phase). Connections already handed out keep their old config.
func (i *Injector) SetConfig(cfg Config) {
	i.mu.Lock()
	i.cfg = cfg
	i.mu.Unlock()
}

// Conn wraps one connection with its own deterministic fault stream.
func (i *Injector) Conn(c net.Conn) net.Conn {
	i.mu.Lock()
	i.conns++
	n := i.conns
	cfg := i.cfg
	i.mu.Unlock()
	i.stats.Conns.Add(1)
	return &conn{
		Conn:    c,
		cfg:     cfg,
		stats:   &i.stats,
		rng:     sim.NewRand(cfg.Seed*0x9e3779b97f4a7c15 + n),
		closeCh: make(chan struct{}),
	}
}

// Dial connects and wraps; the injector's dial is what an HA client plugs
// in to put its own connections under chaos.
func (i *Injector) Dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return i.Conn(c), nil
}

// conn is one fault-wrapped connection.
type conn struct {
	net.Conn
	cfg   Config
	stats *Stats

	mu  lockrank.Mutex[lockrank.ChaosConnMu] // guards rng (Read and Write may race)
	rng *sim.Rand

	dmu          lockrank.Mutex[lockrank.ChaosConnDmu] // guards readDeadline
	readDeadline time.Time

	closeOnce sync.Once
	closeCh   chan struct{}
}

// rollLocked draws one uniform variate from the connection's fault stream.
// Caller holds mu.
func (c *conn) rollLocked() float64 { return c.rng.Float64() }

// decide draws the fault decision for one call: an index into the
// cumulative probability ladder, or -1 for no fault.
func (c *conn) decide(probs ...float64) int {
	c.mu.Lock()
	v := c.rollLocked()
	c.mu.Unlock()
	cum := 0.0
	for i, p := range probs {
		cum += p
		if v < cum {
			return i
		}
	}
	return -1
}

// fraction draws a uniform fraction for torn-write prefix sizing.
func (c *conn) fraction() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rollLocked()
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closeCh) })
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.dmu.Lock()
	c.readDeadline = t
	c.dmu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.dmu.Lock()
	c.readDeadline = t
	c.dmu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) Write(b []byte) (int, error) {
	switch c.decide(c.cfg.ResetProb, c.cfg.TearProb) {
	case 0: // reset
		c.stats.Resets.Add(1)
		//lint:ignore errdrop the injected reset is the error this path exists to produce; the close error is noise
		c.Close()
		return 0, fmt.Errorf("%w: connection reset before write", ErrInjected)
	case 1: // torn write
		if len(b) > 1 {
			n := 1 + int(c.fraction()*float64(len(b)-1))
			if n >= len(b) {
				n = len(b) - 1
			}
			c.stats.TornWrites.Add(1)
			wrote, err := c.Conn.Write(b[:n])
			//lint:ignore errdrop the torn write is the error this path exists to produce; the close error is noise
			c.Close()
			if err != nil {
				return wrote, err
			}
			return wrote, fmt.Errorf("%w: write torn at %d/%d bytes", ErrInjected, wrote, len(b))
		}
	}
	return c.Conn.Write(b)
}

func (c *conn) Read(b []byte) (int, error) {
	switch c.decide(c.cfg.BlackholeProb, c.cfg.StallProb, c.cfg.DelayProb) {
	case 0: // blackhole: bytes never arrive
		c.stats.Blackholes.Add(1)
		c.dmu.Lock()
		deadline := c.readDeadline
		c.dmu.Unlock()
		var timeout <-chan time.Time
		if !deadline.IsZero() {
			t := time.NewTimer(time.Until(deadline))
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-c.closeCh:
			return 0, fmt.Errorf("%w: blackholed connection closed", ErrInjected)
		case <-timeout:
			return 0, os.ErrDeadlineExceeded
		}
	case 1: // stall, then deliver
		c.stats.Stalls.Add(1)
		c.sleep(c.cfg.Stall)
	case 2: // small delay
		c.stats.Delays.Add(1)
		c.sleep(c.cfg.Delay)
	}
	return c.Conn.Read(b)
}

// sleep waits d, cut short if the connection closes.
func (c *conn) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closeCh:
	}
}
