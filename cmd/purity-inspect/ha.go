package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"purity/internal/chaos"
	"purity/internal/client"
	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/server"
	"purity/internal/telemetry"
)

// inspectHA is the guided tour of the end-to-end HA machinery: two servers
// over one controller pair, heartbeat and monitor running, an HA initiator
// writing through chaos-injected connections. Mid-tour the primary dies; the
// monitor takes over, the client follows, and every telemetry layer that
// moved — wire health, session table, chaos injector, client resilience,
// graceful drain — is dumped.
func inspectHA(drives int) {
	cfg := core.DefaultConfig()
	cfg.Shelf.Drives = drives
	cfg.Shelf.DriveConfig.Capacity = 128 << 20
	pair, err := controller.NewPair(controller.DefaultConfig(), cfg)
	check(err)

	mk := func(via controller.Role) (*server.Server, string) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		s := server.NewWithConfig(pair, via, server.Config{})
		go s.Serve(l)
		return s, l.Addr().String()
	}
	prim, primAddr := mk(controller.Primary)
	sec, secAddr := mk(controller.Secondary)

	ha := server.HAConfig{Interval: 10 * time.Millisecond, Silence: 100 * time.Millisecond}
	stopBeat := prim.StartBeat(ha)
	defer stopBeat()
	stopMon := sec.StartMonitor(ha)
	defer stopMon()
	pair.WarmSecondary()

	fmt.Println("=== phase 1: HA initiator under connection chaos ===")
	vol, _, err := pair.Array().CreateVolume(0, "ha-demo", 16<<20)
	check(err)
	inj := chaos.New(chaos.Config{Seed: 42, ResetProb: 0.03, TearProb: 0.03})
	h, err := client.NewHA(client.HAConfig{
		Addrs:       []string{primAddr, secAddr},
		Dial:        inj.Dial,
		OpTimeout:   2 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		Seed:        7,
	})
	check(err)
	defer h.Close()

	write := func(from, to int) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 4096)
				for i := from; i < to; i++ {
					off := int64(w*256+i) * 4096
					check(h.WriteAt(uint64(vol), off, buf))
				}
			}()
		}
		wg.Wait()
	}
	start := time.Now()
	write(0, 32)
	fmt.Printf("8 writers × 32 idempotent writes in %v, session %d\n",
		time.Since(start).Round(time.Millisecond), h.Session())
	fmt.Printf("client: %s\n", telemetry.Render(h.Stats()))
	fmt.Printf("chaos:  %s\n", telemetry.Render(inj.Stats()))

	fmt.Println("\n=== phase 2: kill the primary mid-service ===")
	stopBeat()
	pair.KillPrimary()
	killed := time.Now()
	write(32, 48) // these writes ride out the failover transparently
	fmt.Printf("primary killed; 8×16 more writes landed, service restored in <%v\n",
		time.Since(killed).Round(time.Millisecond))
	fmt.Printf("active controller now: %v (failovers on survivor: %d, takeover %v)\n",
		pair.Active(), sec.Frontend().Failovers.Load(),
		time.Duration(sec.Frontend().FailoverNanos.Load()).Round(time.Microsecond))

	fmt.Println("\n=== the survivor's stats document (sessions: the exactly-once ledger) ===")
	survivor, err := pair.Engine(controller.Secondary)
	check(err)
	printStats(survivor, sec.Frontend(), pair.Sessions())

	fmt.Println("\n=== fenced ex-primary wire counters ===")
	pt := prim.Frontend()
	fmt.Println(pt.Summary())

	fmt.Println("\n=== graceful drain of the corpse ===")
	t0 := time.Now()
	check(prim.Shutdown(5 * time.Second))
	fmt.Printf("drained in %v (drains=%d); the survivor keeps serving:\n",
		time.Since(t0).Round(time.Millisecond), pt.Drains.Load())
	got, err := h.ReadAt(uint64(vol), 0, 4096)
	check(err)
	fmt.Printf("post-drain read via HA client: %d bytes ok\n", len(got))
	fmt.Printf("client final: %s\n", telemetry.Render(h.Stats()))
}
