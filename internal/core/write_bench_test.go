package core

import (
	"encoding/binary"
	"testing"

	"purity/internal/sim"
)

// BenchmarkWriteStages measures the two halves of the staged write path
// separately, in real time:
//
//	prepare — the pure-CPU stage (compression + block hashing) that runs
//	          before the engine lock and scales with cores;
//	full    — a complete WriteAt (prepare + the lane commit).
//
// commit cost = full − prepare, and the prepare/full ratio is the
// parallelizable fraction p of a write. This locates where a single
// write's CPU goes; for what concurrency actually buys, run E13 (the
// commit-lane scaling experiment, measured not projected) on a multi-core
// host.

// compressiblePayload builds n bytes that look like database pages:
// random row headers with zeroed tails, ≈2-3× compressible, so the Pack
// stage does representative work.
func compressiblePayload(seed uint64, n int) []byte {
	buf := make([]byte, n)
	sim.NewRand(seed).Bytes(buf)
	for i := 0; i < n; i += 64 {
		end := i + 64
		if end > n {
			end = n
		}
		for j := i + 24; j < end; j++ {
			buf[j] = 0
		}
	}
	return buf
}

func benchWriteArray(b *testing.B) *Array {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Shelf.Drives = 11
	cfg.Shelf.DriveConfig.Capacity = 512 << 20
	a, err := Format(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func BenchmarkWriteStages(b *testing.B) {
	const io = 32 << 10
	const volBytes = int64(16 << 20)

	b.Run("prepare", func(b *testing.B) {
		a := benchWriteArray(b)
		data := compressiblePayload(1, io)
		b.SetBytes(io)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.prepareWrite(0, data); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("full", func(b *testing.B) {
		a := benchWriteArray(b)
		vol, _, err := a.CreateVolume(0, "ws", volBytes)
		if err != nil {
			b.Fatal(err)
		}
		data := compressiblePayload(1, io)
		var now sim.Time
		b.SetBytes(io)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Stamp each sector with the iteration so content stays unique
			// and the dedup search takes its common miss path.
			for s := 0; s < io; s += 512 {
				binary.LittleEndian.PutUint64(data[s:], uint64(i)<<16|uint64(s))
			}
			off := (int64(i) * io) % volBytes
			d, err := a.WriteAt(now, vol, off, data)
			if err != nil {
				b.Fatal(err)
			}
			now = d
		}
	})
}
