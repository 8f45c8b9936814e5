package purity

// Wall-clock (not simulated-time) benchmarks for the parallel write
// pipeline: BenchmarkParallelWrite drives WriteAt from GOMAXPROCS
// goroutines, BenchmarkSerialWrite executes the identical
// workload — the same (volume, offset, content) write sequence — from a
// single goroutine. The ratio of their MB/s is the pipeline's real-time
// scaling. Each writer lane owns a volume and a generator seed, so the
// streams are disjoint compressible database pages: with one commit lane
// every write's placement queues on that lane's mutex, but compression and
// dedup hashing run on the caller's core. On a single-core host the ratio
// degenerates to ~1× (there is no second core to run the prepare stage
// on); see BenchmarkWriteStages in internal/core for the serial-fraction
// measurement, and EXPERIMENTS.md E13 for the measured multi-lane
// scaling experiment that replaced E10's projection.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"purity/internal/core"
	"purity/internal/sim"
	"purity/internal/workload"
)

const (
	parallelWriteIO  = 32 << 10
	parallelVolBytes = int64(16 << 20)
)

// writeBenchArray builds an array with one 16 MiB volume per writer lane.
func writeBenchArray(b *testing.B, writers int) (*core.Array, []core.VolumeID) {
	b.Helper()
	a := benchArray(b, func(c *core.Config) {
		c.Shelf.DriveConfig.Capacity = 512 << 20
	})
	vols := make([]core.VolumeID, writers)
	for i := range vols {
		id, _, err := a.CreateVolume(0, fmt.Sprintf("pw-%d", i), parallelVolBytes)
		if err != nil {
			b.Fatal(err)
		}
		vols[i] = id
	}
	return a, vols
}

// laneWriter issues the i'th write of lane w: sequential wrapping 32 KiB
// extents of unique database-class content. Both benchmarks below emit
// exactly this stream, so their data placement and garbage profiles match
// and the only variable is concurrency.
type laneWriter struct {
	a   *core.Array
	vol core.VolumeID
	gen *workload.Gen
	buf []byte
	now sim.Time
	i   uint64
}

func newLaneWriter(a *core.Array, vol core.VolumeID, w int) *laneWriter {
	return &laneWriter{
		a:   a,
		vol: vol,
		gen: workload.NewGen(uint64(w+1), workload.ClassDatabase),
		buf: make([]byte, parallelWriteIO),
	}
}

func (l *laneWriter) write(b *testing.B) {
	off := (int64(l.i) * parallelWriteIO) % parallelVolBytes
	l.gen.Fill(l.buf, l.i*(parallelWriteIO/512))
	d, err := l.a.WriteAt(l.now, l.vol, off, l.buf)
	if err != nil {
		b.Fatal(err)
	}
	l.now = d
	l.i++
}

// BenchmarkSerialWrite is the single-goroutine baseline: one goroutine
// round-robins the same lanes the parallel benchmark runs concurrently.
func BenchmarkSerialWrite(b *testing.B) {
	writers := runtime.GOMAXPROCS(0)
	a, vols := writeBenchArray(b, writers)
	lanes := make([]*laneWriter, writers)
	for w := range lanes {
		lanes[w] = newLaneWriter(a, vols[w], w)
	}
	b.SetBytes(parallelWriteIO)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lanes[i%writers].write(b)
	}
}

// BenchmarkParallelWrite measures real wall-clock write throughput with
// GOMAXPROCS concurrent writers (vary with -cpu). The acceptance bar for
// the staged pipeline is >2× BenchmarkSerialWrite bytes/sec at 8 workers
// on a host with ≥8 cores.
func BenchmarkParallelWrite(b *testing.B) {
	writers := runtime.GOMAXPROCS(0)
	a, vols := writeBenchArray(b, writers)
	var next atomic.Int64
	b.SetBytes(parallelWriteIO)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(next.Add(1)-1) % writers
		lane := newLaneWriter(a, vols[w], w)
		for pb.Next() {
			lane.write(b)
		}
	})
}
