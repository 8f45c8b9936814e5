package bench

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"purity/internal/chaos"
	"purity/internal/client"
	"purity/internal/controller"
	"purity/internal/server"
	"purity/internal/telemetry"
	"purity/internal/workload"
)

// runE15 is the end-to-end HA experiment: kill the primary controller in the
// middle of a chaos-injected write workload and measure what clients see.
// Two servers share one controller pair on loopback; the primary heartbeats,
// the secondary's monitor watches. HA initiators at queue depth 16 write
// through the idempotent-replay path while the injector resets and tears
// their connections. Mid-workload the primary dies (heartbeats stop, its
// engine's memory is gone); the monitor detects the silence, recovers from
// the shared shelf, and fences the corpse. The gates, from the paper's §4.3
// availability contract:
//
//   - zero acked-write loss: every write the client saw succeed reads back
//     intact from the survivor;
//   - zero duplicate application: Sessions.AppliedOK equals the acked count
//     exactly, no matter how many ambiguous retries replayed;
//   - the availability gap (kill -> first post-kill acked op) stays far
//     inside the 30-second initiator I/O timeout.
func runE15(o Options) error {
	w := o.Out

	pair, err := controller.NewPair(controller.DefaultConfig(), benchConfig(o))
	if err != nil {
		return err
	}
	vol, _, err := pair.Array().CreateVolume(0, "e15", 32<<20)
	if err != nil {
		return err
	}

	mk := func(via controller.Role) (*server.Server, net.Listener, string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, "", err
		}
		s := server.NewWithConfig(pair, via, server.Config{})
		go s.Serve(l)
		return s, l, l.Addr().String(), nil
	}
	prim, primL, primAddr, err := mk(controller.Primary)
	if err != nil {
		return err
	}
	defer primL.Close()
	sec, secL, secAddr, err := mk(controller.Secondary)
	if err != nil {
		return err
	}
	defer secL.Close()

	ha := server.HAConfig{Interval: 10 * time.Millisecond, Silence: 100 * time.Millisecond}
	stopBeat := prim.StartBeat(ha)
	defer stopBeat()
	stopMon := sec.StartMonitor(ha)
	defer stopMon()
	pair.WarmSecondary()

	inj := chaos.New(chaos.Config{Seed: o.Seed + 1, ResetProb: 0.02, TearProb: 0.02})
	h, err := client.NewHA(client.HAConfig{
		Addrs:       []string{primAddr, secAddr},
		Dial:        inj.Dial,
		OpTimeout:   2 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		Seed:        o.Seed + 2,
	})
	if err != nil {
		return err
	}
	defer h.Close()

	const depth = 16
	const ioSize = 4096
	opsPer := o.scale(64, 24)
	totalOps := depth * opsPer
	killAfter := int64(totalOps / 4)

	fmt.Fprintf(w, "workload: %d writers (QD %d) × %d × 4 KiB idempotent writes under chaos "+
		"(reset/tear 2%% each); primary killed after ~%d acks\n",
		depth, depth, opsPer, killAfter)
	fmt.Fprintf(w, "heartbeat %v, takeover after %v of silence\n\n", ha.Interval, ha.Silence)

	var acked atomic.Int64      // writes the client saw succeed
	var killedAt atomic.Int64   // wall nanos of the kill, 0 until it happens
	var firstAfter atomic.Int64 // wall nanos of the first ack served by the survivor

	var wg sync.WaitGroup
	errs := make([]error, depth)
	start := time.Now()
	for wr := 0; wr < depth; wr++ {
		wr := wr
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, ioSize)
			for i := 0; i < opsPer; i++ {
				off := int64(wr*opsPer+i) * ioSize
				workload.NewGen(o.Seed+uint64(off), workload.ClassDatabase).Fill(buf, uint64(i))
				if err := h.WriteAt(uint64(vol), off, buf); err != nil {
					errs[wr] = fmt.Errorf("writer %d op %d: %w", wr, i, err)
					return
				}
				acked.Add(1)
				// The availability gap ends at the first ack the SURVIVOR
				// serves — an ack already in flight from the dying primary
				// does not mean service was restored.
				if killedAt.Load() != 0 && firstAfter.Load() == 0 &&
					pair.Active() == controller.Secondary {
					firstAfter.CompareAndSwap(0, time.Now().UnixNano())
				}
			}
		}()
	}

	// The killer: once a quarter of the workload is acked, the primary dies
	// abruptly — heartbeats stop and its engine state evaporates. Everything
	// after this is the monitor's problem.
	go func() {
		for acked.Load() < killAfter {
			time.Sleep(time.Millisecond)
		}
		stopBeat()
		pair.KillPrimary()
		killedAt.Store(time.Now().UnixNano())
	}()

	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	if killedAt.Load() == 0 {
		return fmt.Errorf("E15: workload finished before the kill fired; nothing was proven")
	}
	if pair.Active() != controller.Secondary {
		return fmt.Errorf("E15: failover never completed; active = %v", pair.Active())
	}
	gap := time.Duration(firstAfter.Load() - killedAt.Load())

	// Gate 1: zero duplicate application. Every acked write applied exactly
	// once, however many replays the chaos forced.
	tab := pair.Sessions()
	if got := tab.AppliedOK.Load(); got != int64(totalOps) {
		return fmt.Errorf("E15: AppliedOK = %d, want %d (lost or duplicated applies)", got, totalOps)
	}
	if tab.Overflows.Load() != 0 {
		return fmt.Errorf("E15: %d session-window overflows", tab.Overflows.Load())
	}

	// Gate 2: zero acked-write loss. Every byte reads back from the survivor.
	want := make([]byte, ioSize)
	for wr := 0; wr < depth; wr++ {
		for i := 0; i < opsPer; i++ {
			off := int64(wr*opsPer+i) * ioSize
			workload.NewGen(o.Seed+uint64(off), workload.ClassDatabase).Fill(want, uint64(i))
			got, err := h.ReadAt(uint64(vol), off, ioSize)
			if err != nil {
				return fmt.Errorf("E15: read back off %d: %w", off, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("E15: acked write at off %d lost or corrupted across failover", off)
			}
		}
	}

	// Gate 3: the availability gap stays inside the paper's 30 s budget.
	const budget = 30 * time.Second
	if gap <= 0 || gap >= budget {
		return fmt.Errorf("E15: availability gap %v outside the %v budget", gap, budget)
	}

	fmt.Fprintf(w, "wall %v for %d acked writes; all read back intact from the survivor ✓\n",
		wall.Round(time.Millisecond), totalOps)
	fmt.Fprintf(w, "availability gap (kill -> first post-kill ack): %v  (budget %v) ✓\n",
		gap.Round(time.Millisecond), budget)
	fmt.Fprintf(w, "exactly-once: AppliedOK=%d replays suppressed=%d overflows=0 ✓\n",
		tab.AppliedOK.Load(), tab.ReplaysSuppressed.Load())
	fmt.Fprintf(w, "client:   %s\n", telemetry.Render(h.Stats()))
	fmt.Fprintf(w, "chaos:    %s\n", telemetry.Render(inj.Stats()))
	fmt.Fprintf(w, "survivor: failovers=%d (%v)\n",
		sec.Frontend().Failovers.Load(),
		time.Duration(sec.Frontend().FailoverNanos.Load()).Round(time.Microsecond))
	if inj.Stats().Resets.Load()+inj.Stats().TornWrites.Load() == 0 {
		fmt.Fprintf(w, "note: the injector fired nothing this run; rerun with another seed for chaos coverage\n")
	}
	return nil
}
