// Heartbeat-driven failover: the glue that turns a controller.Pair plus two
// servers into an HA array. The active controller's server publishes a
// wall-clock heartbeat (StartBeat); the peer's server watches it
// (StartMonitor) and, after a silence longer than the configured threshold,
// runs the takeover — recovery from the shared shelf, then fencing the
// corpse. Clients see a CodeRetryable/CodeNotPrimary window while this runs
// and re-resolve to the survivor; the paper's budget for the whole episode
// is the 30-second initiator I/O timeout (§4.3).
package server

import (
	"sync"
	"time"

	"purity/internal/controller"
)

// HAConfig tunes the heartbeat and the takeover trigger.
type HAConfig struct {
	// Interval between heartbeats (and between monitor checks).
	Interval time.Duration
	// Silence is how long the active controller's heartbeat may be stale
	// before the peer declares it dead and takes over. Must comfortably
	// exceed Interval or a scheduling hiccup looks like a death.
	Silence time.Duration
}

// DefaultHAConfig scales the paper's multi-second detection down to test
// timescales while keeping the Silence >> Interval shape.
func DefaultHAConfig() HAConfig {
	return HAConfig{Interval: 25 * time.Millisecond, Silence: 250 * time.Millisecond}
}

func (c HAConfig) normalize() HAConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultHAConfig().Interval
	}
	if c.Silence <= 0 {
		c.Silence = DefaultHAConfig().Silence
	}
	return c
}

// StartBeat publishes this server's liveness to the pair on a ticker. The
// returned stop is idempotent; the beater also stops when the server
// drains, so a Shutdown goes silent and lets the peer take over.
func (s *Server) StartBeat(cfg HAConfig) (stop func()) {
	cfg = cfg.normalize()
	s.pair.Beat(s.via)
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.pair.Beat(s.via)
			case <-done:
				return
			case <-s.drainCh:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// StartMonitor watches the peer controller's heartbeat and takes over when
// it goes silent. A takeover that loses the race (or finds the peer still
// alive — a delayed beat, not a death) is a no-op and the monitor keeps
// watching. The returned stop is idempotent; the monitor also stops when
// this server drains.
func (s *Server) StartMonitor(cfg HAConfig) (stop func()) {
	cfg = cfg.normalize()
	peer := controller.Primary
	if s.via == controller.Primary {
		peer = controller.Secondary
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if s.pair.Active() != peer {
					continue // this side already owns the array
				}
				if s.pair.SinceBeat(peer) < cfg.Silence {
					continue
				}
				start := time.Now()
				if _, _, err := s.pair.FailoverTo(s.via, s.now()); err != nil {
					// Peer still alive (the beat was merely late) or another
					// monitor won the race: keep watching.
					continue
				}
				s.tel.Failovers.Add(1)
				s.tel.FailoverNanos.Add(time.Since(start).Nanoseconds())
			case <-done:
				return
			case <-s.drainCh:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
