package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"purity/internal/core"
	"purity/internal/sim"
	"purity/internal/workload"
)

// runE13 measures — in wall-clock time, unlike every simulated-time
// experiment — how write throughput scales with the number of sharded
// commit lanes (Config.CommitLanes). Eight writer goroutines stream unique database-class 32 KiB extents into
// eight volumes; volumes route to lanes by ID, so every lane count
// divides the writers evenly. The run also captures runtime mutex and
// block profiles so the residual serial sections are named, not guessed.
//
// The assertions are gated on runtime.NumCPU(): on a single-core host
// more lanes cannot beat one lane (there is no parallel hardware to
// exploit) and the run records the measured numbers without judging
// them. On ≥2 cores, lanes>1 must beat lanes=1; on ≥4 cores, 4 lanes
// must reach ≥1.8× — failing either returns an error, loudly.
func runE13(o Options) error {
	w := o.Out
	const (
		writers = 8
		ioSize  = 32 << 10
		volSize = int64(16 << 20)
	)
	perWriter := o.scale(1000, 150)
	laneCounts := []int{1, 2, 4, 8}
	if o.Quick {
		laneCounts = []int{1, 2}
	}

	fmt.Fprintf(w, "Wall-clock write scaling vs commit lanes (%d writers × %d × %d KiB, host cores: %d)\n\n",
		writers, perWriter, ioSize>>10, runtime.NumCPU())
	fmt.Fprintf(w, "%-8s %12s %12s %10s %14s %12s\n",
		"lanes", "wall", "MB/s", "vs 1", "max queue", "interleaves")

	prevMutex := runtime.SetMutexProfileFraction(1)
	runtime.SetBlockProfileRate(1)
	defer func() {
		runtime.SetMutexProfileFraction(prevMutex)
		runtime.SetBlockProfileRate(0)
	}()

	type laneRun struct {
		lanes int
		mbps  float64
	}
	var runs []laneRun
	var profiled bytes.Buffer

	for _, lanes := range laneCounts {
		cfg := benchConfig(o, func(c *core.Config) {
			c.Shelf.DriveConfig.Capacity = 512 << 20
			c.CommitLanes = lanes
		})
		arr, err := core.Format(cfg)
		if err != nil {
			return err
		}
		vols := make([]core.VolumeID, writers)
		for i := range vols {
			vols[i], _, err = arr.CreateVolume(0, fmt.Sprintf("e13-%d", i), volSize)
			if err != nil {
				return err
			}
		}

		errs := make([]error, writers)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < writers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				gen := workload.NewGen(o.Seed+uint64(i+1), workload.ClassDatabase)
				buf := make([]byte, ioSize)
				now := sim.Time(0)
				for j := 0; j < perWriter; j++ {
					off := (int64(j) * ioSize) % volSize
					gen.Fill(buf, uint64(j)*(ioSize/512))
					d, err := arr.WriteAt(now, vols[i], off, buf)
					if err != nil {
						errs[i] = fmt.Errorf("writer %d op %d: %w", i, j, err)
						return
					}
					now = d
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}

		totalBytes := float64(writers) * float64(perWriter) * float64(ioSize)
		mbps := totalBytes / (1 << 20) / wall.Seconds()
		speedup := 1.0
		if len(runs) > 0 {
			speedup = mbps / runs[0].mbps
		}
		lt := arr.LaneTelemetry()
		var interleaves int64
		for _, ls := range lt.Lanes {
			interleaves += ls.SeqInterleaves
		}
		fmt.Fprintf(w, "%-8d %12v %12.1f %9.2fx %14d %12d\n",
			lanes, wall.Round(time.Millisecond), mbps, speedup, lt.MaxQueueDepth, interleaves)
		runs = append(runs, laneRun{lanes, mbps})

		// Snapshot contention for the widest run: which mutexes writers
		// actually queued on, straight from the runtime.
		if lanes == laneCounts[len(laneCounts)-1] {
			profileSummary(&profiled, "mutex")
			profileSummary(&profiled, "block")
		}
	}

	fmt.Fprintf(w, "\nContention profile for the %d-lane run (top stacks, runtime/pprof debug=1):\n%s",
		laneCounts[len(laneCounts)-1], profiled.String())

	base := runs[0].mbps
	best := runs[0]
	for _, r := range runs[1:] {
		if r.mbps > best.mbps {
			best = r
		}
	}
	switch {
	case runtime.NumCPU() < 2:
		fmt.Fprintf(w, "\nSingle-core host: scaling gates skipped — more lanes cannot beat one\n")
		fmt.Fprintf(w, "lane without parallel hardware. The numbers above are the record;\n")
		fmt.Fprintf(w, "re-run on a multi-core host for the scaling demonstration.\n")
	case best.lanes == 1 || best.mbps <= base:
		return fmt.Errorf("E13: %d cores but no lane count beat lanes=1 (%.1f MB/s): sharded commit is not scaling", runtime.NumCPU(), base)
	default:
		fmt.Fprintf(w, "\n%d lanes: %.2fx over the single lane on %d cores ✓\n", best.lanes, best.mbps/base, runtime.NumCPU())
		if runtime.NumCPU() >= 4 && !o.Quick {
			var four float64
			for _, r := range runs {
				if r.lanes == 4 {
					four = r.mbps
				}
			}
			if four < 1.8*base {
				return fmt.Errorf("E13: 4 lanes reached only %.2fx on %d cores (need ≥1.8x)", four/base, runtime.NumCPU())
			}
			fmt.Fprintf(w, "4-lane gate: %.2fx ≥ 1.8x ✓\n", four/base)
		}
	}
	return nil
}

// profileSummary appends the header and top stacks of a named runtime
// profile in debug=1 text form — enough to see which locks contend
// without shipping a binary pb.gz anywhere.
func profileSummary(out *bytes.Buffer, name string) {
	p := pprof.Lookup(name)
	if p == nil {
		return
	}
	var raw bytes.Buffer
	if err := p.WriteTo(&raw, 1); err != nil {
		return
	}
	lines := strings.Split(raw.String(), "\n")
	const keep = 24
	fmt.Fprintf(out, "\n--- %s ---\n", name)
	for i, line := range lines {
		if i >= keep {
			fmt.Fprintf(out, "... (%d more lines)\n", len(lines)-keep)
			break
		}
		fmt.Fprintln(out, line)
	}
}
