package core

import (
	"encoding/binary"
	"runtime/debug"
	"testing"

	"purity/internal/cblock"
)

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestWriteAllocs pins what a steady-state 32 KiB write of unique data
// costs the heap at lanes 1 with compression on. Its frame, its NVRAM
// record, its block hashes and its chunk and fact headers are borrowed
// from a pooled scratch that the segio, the NVRAM log and the memtable copy
// out of, so what is left is the one []uint64 its facts' columns come from,
// its extent list, the volume row's lookup and a share of each segment
// rotation: 8 objects, against 49 when every frame grew from nil, the
// record and every fact were allocated, and the log copied each record.
// Background steps are off, so the count is the write path's own; a
// warm-up pass of the same writes and a checkpoint first leave the pool,
// the NVRAM log and the open segment at their steady size.
func TestWriteAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	cfg := TestConfig()
	cfg.CommitLanes = 1
	cfg.CompressionEnabled = true
	cfg.BackgroundEvery = 1 << 30
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 64
	vol := mustCreate(t, a, "v", writes*cblock.MaxBytes)
	data := pattern(1, cblock.MaxBytes)
	n := uint64(0)
	write := func() {
		// A new counter in every block keeps each write unique to dedup;
		// pattern's repeats keep it compressible.
		for off := 0; off < len(data); off += cblock.SectorSize {
			binary.LittleEndian.PutUint64(data[off:], n)
		}
		if _, err := a.WriteAt(0, vol, int64(n%writes)*cblock.MaxBytes, data); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for range writes {
		write()
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	hits := a.Stats().DedupHits
	got := testing.AllocsPerRun(writes-1, write)
	if a.Stats().DedupHits != hits {
		t.Fatal("a measured write deduplicated: the writes are not unique")
	}
	if got > 9 {
		t.Errorf("a steady-state 32 KiB unique write allocates %v objects, want at most 9", got)
	}
}
