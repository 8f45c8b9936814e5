package core

import (
	"testing"

	"purity/internal/sim"
)

// sealedVolume formats a test array, fills a volume of volBytes with unique
// 8 KiB writes, seals everything and returns a time by which the drives are
// idle.
func sealedVolume(t *testing.T, cfg Config, volBytes int64) (*Array, VolumeID, sim.Time) {
	t.Helper()
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "v", volBytes)
	const extent = 8 << 10
	now := sim.Time(0)
	for off := int64(0); off < volBytes; off += extent {
		now, err = a.WriteAt(now, vol, off, pattern(uint64(off/extent)+1, extent))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Twice: the first checkpoint writes pyramid pages into a fresh open
	// segment; the second has nothing left to write and seals that one too.
	for i := 0; i < 2; i++ {
		now, err = a.FlushAll(now)
		if err != nil {
			t.Fatal(err)
		}
	}
	return a, vol, now + sim.Second
}

// readRounds issues rounds of `width` uniform 4 KiB reads, every read of a
// round at the same instant and the next round when the slowest has
// landed, and returns each read's simulated latency.
func readRounds(t *testing.T, a *Array, vol VolumeID, volBytes int64, at sim.Time, rounds, width int, seed uint64) ([]sim.Time, sim.Time) {
	t.Helper()
	r := sim.NewRand(seed)
	var lats []sim.Time
	for i := 0; i < rounds; i++ {
		next := at
		for j := 0; j < width; j++ {
			off := int64(r.Intn(int(volBytes/4096))) * 4096
			_, done, err := a.ReadAt(at, vol, off, 4096)
			if err != nil {
				t.Fatal(err)
			}
			lats = append(lats, done-at)
			next = sim.Max(next, done)
		}
		at = next
	}
	return lats, at
}

// TestIdleArrayReadsGoHome: with no program or erase anywhere, concurrent
// reads that meet on a drive queue behind each other there; none of them is
// §4.4's busy drive, so nothing reconstructs and every segment read moves
// exactly the one write unit it verifies. Hedging is off: this is the busy
// rule alone.
func TestIdleArrayReadsGoHome(t *testing.T) {
	cfg := TestConfig()
	cfg.CBlockCacheEntries = 8
	cfg.ReadPolicy.HedgePercentile = 0
	const volBytes = 2 << 20
	a, vol, at := sealedVolume(t, cfg, volBytes)
	before := a.Stats()
	readRounds(t, a, vol, volBytes, at, 100, 8, 1)
	st := a.Stats()

	seg := st.SegRead
	seg.DirectShardReads -= before.SegRead.DirectShardReads
	seg.ReconstructedReads -= before.SegRead.ReconstructedReads
	seg.ShardBytesRead -= before.SegRead.ShardBytesRead
	seg.BusyAvoided -= before.SegRead.BusyAvoided
	if seg.DirectShardReads == 0 {
		t.Fatal("every read was a cache hit: the test read no drive")
	}
	if seg.ReconstructedReads != 0 || seg.BusyAvoided != 0 {
		t.Fatalf("idle array: %d reconstructed, %d busy-avoided, want 0, 0", seg.ReconstructedReads, seg.BusyAvoided)
	}
	if want := seg.DirectShardReads * int64(cfg.Layout.WriteUnit); seg.ShardBytesRead != want {
		t.Fatalf("ShardBytesRead = %d, want %d segment reads × one write unit = %d", seg.ShardBytesRead, seg.DirectShardReads, want)
	}
	if stalled := st.FlashStats.StalledReads - before.FlashStats.StalledReads; stalled != 0 {
		t.Fatalf("%d reads stalled behind a program or erase on a quiesced array", stalled)
	}
	if st.FlashStats.QueuedReads == before.FlashStats.QueuedReads {
		t.Fatal("no read ever queued behind another: the rounds did not contend")
	}
}

// TestHedgeNeedsADriveRead: a read served from the cblock cache has nothing
// in flight to race, however its latency compares with the others'.
func TestHedgeNeedsADriveRead(t *testing.T) {
	const volBytes = 256 << 10
	a, vol, at := sealedVolume(t, TestConfig(), volBytes)
	// Warm the cache: every cblock once.
	for off := int64(0); off < volBytes; off += 8 << 10 {
		_, done, err := a.ReadAt(at, vol, off, 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	before := a.Stats()
	// Sizes vary so the latencies do: CPU cost is per KiB.
	r := sim.NewRand(5)
	for i := 0; i < 1000; i++ {
		n := (1 + r.Intn(8)) * 4096
		off := int64(r.Intn(int(volBytes-int64(n))/4096+1)) * 4096
		_, done, err := a.ReadAt(at, vol, off, n)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	st := a.Stats()
	if misses := st.CacheMisses - before.CacheMisses; misses != 0 {
		t.Fatalf("%d cache misses: the volume is not cache-resident", misses)
	}
	if hedged := st.HedgedReads - before.HedgedReads; hedged != 0 {
		t.Fatalf("%d of 1000 cache-resident reads hedged", hedged)
	}
}

// TestHedgeRacesAReconstruction: one drive serves a long queue of reads, so
// it is slow but not busy in §4.4's sense and the policy sends reads home
// to it. Those outlast the hedge threshold and race a real reconstruction
// from the idle peers, which costs drive reads and does not always win.
func TestHedgeRacesAReconstruction(t *testing.T) {
	cfg := TestConfig()
	cfg.CBlockCacheEntries = 8
	const volBytes = 2 << 20
	a, vol, at := sealedVolume(t, cfg, volBytes)

	// Context for the tracker: uncontended drive reads, one at a time.
	_, at = readRounds(t, a, vol, volBytes, at, 200, 1, 2)
	warm := a.Stats()
	if warm.HedgedReads != 0 {
		t.Fatalf("%d hedges among uncontended reads", warm.HedgedReads)
	}

	slow := a.Shelf().Drive(2)
	dc := slow.Config()
	clog := make([]byte, dc.Dies*dc.DieStripe)
	var lats []sim.Time
	for round := 0; round < 20; round++ {
		at += sim.Second
		for i := 0; i < 40; i++ { // 40 reads deep on every die
			if _, err := slow.ReadAt(at, clog, 0); err != nil {
				t.Fatal(err)
			}
		}
		l, _ := readRounds(t, a, vol, volBytes, at, 1, 8, uint64(100+round))
		lats = append(lats, l...)
	}
	st := a.Stats()

	hedged := st.HedgedReads - warm.HedgedReads
	wins := st.HedgeWins - warm.HedgeWins
	recon := st.SegRead.ReconstructedReads - warm.SegRead.ReconstructedReads
	if hedged == 0 {
		t.Fatal("no read on the slow drive was hedged")
	}
	if st.SegRead.BusyAvoided != warm.SegRead.BusyAvoided {
		t.Fatal("a drive that only serves reads was avoided as busy")
	}
	// A 4 KiB read is one extent; its frame lies in one write unit or
	// straddles two.
	if recon < hedged || recon > 2*hedged {
		t.Fatalf("%d hedges added %d reconstructed reads, want one or two each", hedged, recon)
	}
	if wins == 0 || wins > hedged {
		t.Fatalf("HedgeWins = %d of %d hedged reads", wins, hedged)
	}
	lo, hi := lats[0], lats[0]
	for _, l := range lats {
		lo, hi = min(lo, l), sim.Max(hi, l)
	}
	if lo == hi {
		t.Fatalf("every read took %v: the hedge is being served from memory again", lo)
	}
}
