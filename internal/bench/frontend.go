package bench

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"purity/internal/client"
	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/server"
	"purity/internal/sim"
	"purity/internal/telemetry"
	"purity/internal/workload"
)

// frontendRig is one in-process array served over loopback TCP.
type frontendRig struct {
	pair *controller.Pair
	srv  *server.Server
	l    net.Listener
	addr string
	vol  uint64
}

func (r *frontendRig) close() {
	//lint:ignore errdrop tearing down a loopback listener between measurements; nothing to do with the error
	r.l.Close()
}

// newFrontendRig formats a fresh array, prefills one volume in-process (so
// reads hit real data and no measurement inherits another's flush/GC debt),
// and serves it on loopback.
func newFrontendRig(o Options, volSize int64) (*frontendRig, error) {
	pair, err := controller.NewPair(controller.DefaultConfig(), benchConfig(o, func(c *core.Config) {
		c.Shelf.DriveConfig.Capacity = 256 << 20
	}))
	if err != nil {
		return nil, err
	}
	arr := pair.Array()
	vol, now, err := arr.CreateVolume(0, "e14", volSize)
	if err != nil {
		return nil, err
	}
	if _, err := workload.Prefill(arr, vol, volSize, 256<<10, workload.ClassDatabase, o.Seed+1, now); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.NewWithConfig(pair, controller.Primary, server.Config{
		Workers:    8,
		QueueDepth: 128,
		// Pace responses to the device model's simulated service time:
		// the latency a real array would show, which one caller pays in
		// series and queue depth overlaps.
		Pace: true,
	})
	go srv.Serve(l)
	rig := &frontendRig{pair: pair, srv: srv, l: l, addr: l.Addr().String(), vol: uint64(vol)}
	// Warmup: the prefill left the simulated device frontier ahead of the
	// server's wall epoch, so the first paced ops would absorb that offset
	// as artificial latency. Drive a few unmeasured reads until wall time
	// catches up.
	c, err := client.DialPipelined(rig.addr)
	if err != nil {
		rig.close()
		return nil, err
	}
	for i := 0; i < 16; i++ {
		if _, err := c.ReadAt(rig.vol, int64(i)*4096, 4096); err != nil {
			rig.close()
			return nil, err
		}
	}
	if err := c.Close(); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// runE14 measures the pipelined front end in wall-clock time,
// end to end over real loopback TCP: an in-process controller pair serves
// one port, and initiators drive it over the wire.
//
// Phase A sweeps queue depth on a SINGLE connection. At each depth, QD
// goroutines share one client and issue a mixed ~80/20 read/write 4 KiB
// workload, so QD requests are genuinely in flight and complete out of
// order. QD 1 is the lock-step baseline: one caller, one request on the
// wire at a time, every op paying a serial round trip plus service time —
// what a protocol without tags would deliver at any depth. Every depth gets
// a freshly formatted, freshly prefilled array so none inherits another's
// flush/GC debt. HDR-style log-bucketed histograms record per-op wall
// latency; the table reports IOPS with p50/p99/p99.9. The gate: every depth
// ≥ 8 must strictly beat QD 1.
//
// Phase B is the fan-in stress: 1k+ concurrent client goroutines (quick:
// 128) across a handful of connections and volumes, exercising admission
// control (per-volume windows, global byte budget) under real contention.
// The run reports the server's wire-health and admission counters — and
// fails loudly if any corruption-class counter (malformed, oversized,
// duplicate tags) is nonzero.
func runE14(o Options) error {
	w := o.Out

	// --- Phase A: queue-depth sweep on one connection -------------------
	const volSize = int64(32 << 20)
	depths := []int{1, 4, 8, 16, 32}
	if o.Quick {
		depths = []int{1, 4, 8}
	}
	opsPerDepth := o.scale(6000, 1200)

	fmt.Fprintf(w, "Phase A: one connection, %d × 4 KiB ops per depth (80%% read), host cores: %d\n",
		opsPerDepth, runtime.NumCPU())
	fmt.Fprintf(w, "(fresh array per measurement)\n\n")
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s %8s\n",
		"depth", "wall", "IOPS", "p50", "p99", "p99.9", "vs QD 1")

	var qd1 float64 // IOPS at depth 1, the first row
	for _, depth := range depths {
		rig, err := newFrontendRig(o, volSize)
		if err != nil {
			return err
		}
		c, err := client.DialPipelined(rig.addr)
		if err != nil {
			rig.close()
			return err
		}
		perWorker := opsPerDepth / depth
		wall, hist, err := driveMixed([]*client.Client{c}, []uint64{rig.vol}, volSize, depth, perWorker, o.Seed)
		if cerr := c.Close(); err == nil && cerr != nil {
			err = cerr
		}
		rig.close()
		if err != nil {
			return err
		}
		iops := float64(perWorker*depth) / wall.Seconds()
		if depth == 1 {
			qd1 = iops
		}
		fmt.Fprintf(w, "%-6d %10v %10.0f %10v %10v %10v %7.2fx\n",
			depth, wall.Round(time.Millisecond), iops,
			hist.Percentile(50), hist.Percentile(99), hist.Percentile(99.9), iops/qd1)
		// The protocol's whole point: depth a single connection can
		// actually use.
		if depth >= 8 && iops <= qd1 {
			return fmt.Errorf("E14: %.0f IOPS at depth %d did not beat %.0f IOPS at depth 1",
				iops, depth, qd1)
		}
	}
	fmt.Fprintf(w, "\nevery depth ≥ 8 beats QD 1 ✓\n")

	// --- Phase B: concurrent-initiator fan-in ---------------------------
	clients := o.scale(1024, 128)
	conns := o.scale(16, 8)
	vols := 8
	opsPer := o.scale(24, 8)

	fmt.Fprintf(w, "\nPhase B: %d client goroutines over %d connections, %d volumes, %d ops each\n",
		clients, conns, vols, opsPer)

	rig, err := newFrontendRig(o, 8<<20)
	if err != nil {
		return err
	}
	defer rig.close()
	volIDs := make([]uint64, vols)
	cs := make([]*client.Client, conns)
	for i := range cs {
		if cs[i], err = client.DialPipelined(rig.addr); err != nil {
			return err
		}
	}
	for i := range volIDs {
		if volIDs[i], err = cs[0].CreateVolume(fmt.Sprintf("e14-b%d", i), 8<<20); err != nil {
			return err
		}
		if err := cs[0].WriteAt(volIDs[i], 0, make([]byte, 1<<20)); err != nil {
			return err
		}
	}

	wall, hist, err := driveMixed(cs, volIDs, 1<<20, clients, opsPer, o.Seed)
	if err != nil {
		return err
	}
	for _, c := range cs {
		if err := c.Close(); err != nil {
			return err
		}
	}

	totalOps := float64(clients) * float64(opsPer)
	fmt.Fprintf(w, "  wall=%v IOPS=%.0f p50=%v p99=%v p99.9=%v max=%v\n",
		wall.Round(time.Millisecond), totalOps/wall.Seconds(),
		hist.Percentile(50), hist.Percentile(99), hist.Percentile(99.9), hist.Max())

	tel := rig.srv.Frontend()
	fmt.Fprintf(w, "  frontend: %s\n", tel.Summary())
	if n := tel.MalformedFrames.Load() + tel.OversizedFrames.Load() + tel.DuplicateTags.Load(); n != 0 {
		return fmt.Errorf("E14: %d protocol violations from well-behaved initiators", n)
	}
	fmt.Fprintf(w, "  no protocol violations across %0.f ops ✓\n", totalOps)
	return nil
}

// driveMixed runs `workers` goroutines of opsPer mixed 80/20 read/write
// 4 KiB ops each — worker i on cs[i%len(cs)] and vols[i%len(vols)], offsets
// uniform over each volume's first span bytes — and returns the wall time
// and per-op wall latencies.
func driveMixed(cs []*client.Client, vols []uint64, span int64, workers, opsPer int, seed uint64) (time.Duration, *telemetry.Histogram, error) {
	const ioSize = 4 << 10
	errs := make([]error, workers)
	h := telemetry.NewHistogram()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, vol := cs[i%len(cs)], vols[i%len(vols)]
			r := sim.NewRand(seed + uint64(i+1))
			gen := workload.NewGen(seed+uint64(i+1), workload.ClassDatabase)
			data := make([]byte, ioSize)
			for j := 0; j < opsPer; j++ {
				off := r.Int63n(span/ioSize) * ioSize
				var err error
				t0 := time.Now()
				if r.Intn(5) == 0 {
					gen.Fill(data, uint64(j))
					err = c.WriteAt(vol, off, data)
				} else {
					_, err = c.ReadAt(vol, off, ioSize)
				}
				h.Record(sim.Time(time.Since(t0).Nanoseconds()))
				if err != nil {
					errs[i] = fmt.Errorf("worker %d op %d: %w", i, j, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	return wall, h, nil
}
