package ssd

import (
	"bytes"
	"testing"
	"testing/quick"

	"purity/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Capacity = 16 << 20
	cfg.EraseBlockSize = 256 << 10
	return cfg
}

func newDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New("ssd0", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{},
		{Capacity: 1 << 20, EraseBlockSize: 3000, PageSize: 4096, Dies: 4},    // cap not multiple
		{Capacity: 1 << 20, EraseBlockSize: 1 << 18, PageSize: 4095, Dies: 4}, // block not multiple of page
		{Capacity: -5, EraseBlockSize: 1 << 18, PageSize: 4096, Dies: 4},
	}
	for i, cfg := range bad {
		if _, err := New("x", cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newDevice(t)
	data := make([]byte, 12345)
	sim.NewRand(1).Bytes(data)
	if _, err := d.WriteAt(0, data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(0, got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := newDevice(t)
	got := make([]byte, 8192)
	got[0] = 0xff
	if _, err := d.ReadAt(0, got, 1<<20); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("unwritten byte %d = %#x", i, b)
		}
	}
}

func TestBounds(t *testing.T) {
	d := newDevice(t)
	buf := make([]byte, 10)
	if _, err := d.ReadAt(0, buf, d.Capacity()-5); err != ErrBounds {
		t.Fatalf("read past end: %v", err)
	}
	if _, err := d.WriteAt(0, buf, -1); err != ErrBounds {
		t.Fatalf("negative write: %v", err)
	}
	if _, err := d.Erase(0, 100); err != ErrBounds {
		t.Fatalf("unaligned erase: %v", err)
	}
}

func TestFailRevive(t *testing.T) {
	d := newDevice(t)
	d.Fail()
	if !d.Failed() {
		t.Fatal("Failed() false after Fail")
	}
	buf := make([]byte, 10)
	if _, err := d.ReadAt(0, buf, 0); err != ErrFailed {
		t.Fatalf("read on failed drive: %v", err)
	}
	if _, err := d.WriteAt(0, buf, 0); err != ErrFailed {
		t.Fatalf("write on failed drive: %v", err)
	}
	// Data survives a pull/reinsert.
	d.Revive()
	if _, err := d.WriteAt(0, []byte("persist"), 0); err != nil {
		t.Fatal(err)
	}
	d.Fail()
	d.Revive()
	got := make([]byte, 7)
	if _, err := d.ReadAt(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist" {
		t.Fatalf("data lost across pull: %q", got)
	}
}

func TestSequentialWriteLatency(t *testing.T) {
	d := newDevice(t)
	cfg := d.Config()
	data := make([]byte, cfg.PageSize)
	done, err := d.WriteAt(0, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One page programmed plus a 4 KiB bus transfer.
	expected := cfg.ProgramLatency + sim.Time(int64(cfg.TransferPerKiB)*4)
	if done != expected {
		t.Fatalf("sequential page program done at %v, want %v", done, expected)
	}
}

func TestRandomWritePenalty(t *testing.T) {
	d := newDevice(t)
	cfg := d.Config()
	page := make([]byte, cfg.PageSize)

	// First write: sequential.
	if _, err := d.WriteAt(0, page, 0); err != nil {
		t.Fatal(err)
	}
	s0 := d.Stats()
	if s0.RandomWrites != 0 {
		t.Fatalf("first write counted as random")
	}
	// Overwrite the same page: random, penalized.
	if _, err := d.WriteAt(sim.Second, page, 0); err != nil {
		t.Fatal(err)
	}
	s1 := d.Stats()
	if s1.RandomWrites != 1 {
		t.Fatalf("RandomWrites = %d, want 1", s1.RandomWrites)
	}
	if s1.FlashBytesWritten <= s1.HostBytesWritten {
		t.Fatalf("no write amplification: flash=%d host=%d", s1.FlashBytesWritten, s1.HostBytesWritten)
	}
}

func TestAppendAfterEraseIsSequential(t *testing.T) {
	d := newDevice(t)
	cfg := d.Config()
	page := make([]byte, cfg.PageSize)
	if _, err := d.WriteAt(0, page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(sim.Second, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt(2*sim.Second, page, 0); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.RandomWrites != 0 {
		t.Fatalf("append after erase counted as random (%d)", s.RandomWrites)
	}
}

func TestReadStallsBehindProgram(t *testing.T) {
	// A read issued to a die mid-program completes only after the program:
	// the latency spike Purity's scheduler exists to avoid.
	d := newDevice(t)
	cfg := d.Config()
	big := make([]byte, 4*cfg.PageSize)
	wDone, err := d.WriteAt(0, big, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.PageSize)
	if !d.BusyRangeAt(10*sim.Microsecond, 0, len(buf)) {
		t.Fatal("BusyRangeAt false during program")
	}
	rDone, err := d.ReadAt(10*sim.Microsecond, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rDone < wDone {
		t.Fatalf("read finished at %v, before program at %v", rDone, wDone)
	}
	if s := d.Stats(); s.StalledReads != 1 || s.QueuedReads != 0 {
		t.Fatalf("StalledReads = %d, QueuedReads = %d, want 1, 0", s.StalledReads, s.QueuedReads)
	}
	if !d.BusyAt(10 * sim.Microsecond) {
		t.Fatal("BusyAt false during program")
	}
	// The stalled read runs in [wDone, wDone+ReadLatency): the die is still
	// occupied, but by a read, and a read behind it would only queue.
	if d.BusyAt(wDone + cfg.ReadLatency/2) {
		t.Fatal("BusyAt true while the die serves only a read")
	}
	if d.BusyAt(wDone + rDone) {
		t.Fatal("BusyAt true after all work done")
	}
}

func TestReadStallsBehindErase(t *testing.T) {
	d := newDevice(t)
	cfg := d.Config()
	eDone, err := d.Erase(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.PageSize)
	if !d.BusyRangeAt(sim.Millisecond, 0, len(buf)) {
		t.Fatal("BusyRangeAt false during erase")
	}
	rDone, err := d.ReadAt(sim.Millisecond, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rDone < eDone {
		t.Fatalf("read finished at %v, before erase at %v", rDone, eDone)
	}
	if s := d.Stats(); s.StalledReads != 1 || s.QueuedReads != 0 {
		t.Fatalf("StalledReads = %d, QueuedReads = %d, want 1, 0", s.StalledReads, s.QueuedReads)
	}
}

func TestReadBehindReadQueuesWithoutBusy(t *testing.T) {
	// §4.4's rule is about drives that are writing or erasing. A read
	// behind another read still waits its turn on the die, but the die is
	// not busy in that sense and the wait is not a stall.
	d := newDevice(t)
	cfg := d.Config()
	buf := make([]byte, cfg.PageSize)
	first, err := d.ReadAt(0, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := 10 * sim.Microsecond
	if d.BusyRangeAt(at, 0, len(buf)) || d.BusyAt(at) {
		t.Fatal("a die serving a read reports busy")
	}
	second, err := d.ReadAt(at, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := first + cfg.ReadLatency; second != want {
		t.Fatalf("second read done at %v, want %v (queued behind the first)", second, want)
	}
	if d.BusyRangeAt(at, 0, len(buf)) {
		t.Fatal("two queued reads made the die busy")
	}
	if s := d.Stats(); s.StalledReads != 0 || s.QueuedReads != 1 {
		t.Fatalf("StalledReads = %d, QueuedReads = %d, want 0, 1", s.StalledReads, s.QueuedReads)
	}
}

func TestBusyIsTheStallCondition(t *testing.T) {
	// BusyRangeAt(t) must say exactly whether a read issued at t stalls,
	// including just before a program that was scheduled ahead of time: a
	// read that cannot finish on the die before the program starts is
	// queued behind it.
	d := newDevice(t)
	cfg := d.Config()
	page := make([]byte, cfg.PageSize)
	start := 10 * sim.Millisecond
	if _, err := d.WriteAt(start, page, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at   sim.Time
		busy bool
	}{
		{start - cfg.ReadLatency, false}, // fits in the gap before the program
		{start - cfg.ReadLatency + 1, true},
		{start + cfg.ProgramLatency/2, true},
		{start + cfg.ProgramLatency, false},
	} {
		if got := d.BusyRangeAt(tc.at, 0, len(page)); got != tc.busy {
			t.Errorf("BusyRangeAt(%v) = %v, want %v", tc.at, got, tc.busy)
		}
		fresh, err := New("twin", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.WriteAt(start, page, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.ReadAt(tc.at, page, 0); err != nil {
			t.Fatal(err)
		}
		if stalled := fresh.Stats().StalledReads == 1; stalled != tc.busy {
			t.Errorf("read at %v: stalled = %v, want %v", tc.at, stalled, tc.busy)
		}
	}
}

func TestReadsOnSeparateDiesDontStall(t *testing.T) {
	d := newDevice(t)
	cfg := d.Config()
	// Write to die 0 (offset 0); read from die 1 (one DieStripe over): the
	// channels are independent, so no interference.
	page := make([]byte, cfg.PageSize)
	if _, err := d.WriteAt(0, page, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.PageSize)
	done, err := d.ReadAt(0, buf, int64(cfg.DieStripe))
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.ReadLatency + sim.Time(int64(cfg.TransferPerKiB)*4)
	if done != want {
		t.Fatalf("cross-die read done at %v, want %v", done, want)
	}
	// A read aimed at the writing die IS busy; BusyRangeAt sees exactly that.
	if !d.BusyRangeAt(sim.Microsecond, 0, cfg.PageSize) {
		t.Fatal("BusyRangeAt false on the programming die")
	}
	// Die 2 never saw work: idle.
	if d.BusyRangeAt(sim.Microsecond, 2*int64(cfg.DieStripe), cfg.PageSize) {
		t.Fatal("BusyRangeAt true on an idle die")
	}
}

func TestEraseWearAndFailure(t *testing.T) {
	cfg := testConfig()
	cfg.PELimit = 10
	cfg.WearFailureProb = 1.0 // deterministic failure past limit
	d, err := New("worn", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.PELimit; i++ {
		if _, err := d.Erase(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if w := d.Stats().MaxWear; w != cfg.PELimit {
		t.Fatalf("wear = %d, want %d", w, cfg.PELimit)
	}
	// One more erase pushes past the limit: block goes bad.
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := d.ReadAt(0, buf, 0); err != ErrCorrupt {
		t.Fatalf("read of worn-out block: %v, want ErrCorrupt", err)
	}
	// Erasing again clears the bad flag (fresh mapping), matching the
	// paper's observation that scrub+rewrite keeps worn flash usable.
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(0, buf, 0); err != ErrCorrupt {
		// Still past the limit with prob 1.0, so it goes bad again.
		t.Logf("block failed again as configured: %v", err)
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	d := newDevice(t)
	if _, err := d.WriteAt(0, []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	d.CorruptBlock(0)
	buf := make([]byte, 3)
	if _, err := d.ReadAt(0, buf, 0); err != ErrCorrupt {
		t.Fatalf("read of corrupted block: %v, want ErrCorrupt", err)
	}
	if d.Stats().BadBlocks != 1 {
		t.Fatalf("BadBlocks = %d, want 1", d.Stats().BadBlocks)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := newDevice(t)
	data := make([]byte, 10000)
	if _, err := d.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5000)
	if _, err := d.ReadAt(0, buf, 0); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.HostBytesWritten != 10000 || s.HostBytesRead != 5000 {
		t.Fatalf("stats = %+v", s)
	}
	if s.FlashBytesWritten != 10000 {
		t.Fatalf("sequential write amplified: %d", s.FlashBytesWritten)
	}
}

func TestRoundTripProperty(t *testing.T) {
	d := newDevice(t)
	capacity := d.Capacity()
	f := func(seed uint64, offRaw uint32, lenRaw uint16) bool {
		n := int(lenRaw)%8192 + 1
		off := int64(offRaw) % (capacity - int64(n))
		data := make([]byte, n)
		sim.NewRand(seed).Bytes(data)
		if _, err := d.WriteAt(0, data, off); err != nil {
			return false
		}
		got := make([]byte, n)
		if _, err := d.ReadAt(0, got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyMonotonicity(t *testing.T) {
	// Completion times never precede issue times, and per-die busy times
	// only move forward.
	d := newDevice(t)
	r := sim.NewRand(3)
	page := make([]byte, d.Config().PageSize)
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		off := int64(r.Intn(60)) * int64(d.Config().PageSize)
		var done sim.Time
		var err error
		if r.Intn(2) == 0 {
			done, err = d.WriteAt(now, page, off)
		} else {
			done, err = d.ReadAt(now, page, off)
		}
		if err != nil {
			t.Fatal(err)
		}
		if done < now {
			t.Fatalf("op %d completed at %v before issue at %v", i, done, now)
		}
		now += sim.Time(r.Intn(int(sim.Millisecond)))
	}
}

func BenchmarkWrite128KiB(b *testing.B) {
	d, _ := New("bench", DefaultConfig())
	data := make([]byte, 128<<10)
	b.SetBytes(int64(len(data)))
	var now sim.Time
	for i := 0; i < b.N; i++ {
		off := (int64(i) * int64(len(data))) % (d.Capacity() - int64(len(data)))
		off -= off % int64(len(data))
		var err error
		now, err = d.WriteAt(now, data, off)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestFlipBitIsSilentAndCounted(t *testing.T) {
	d := newDevice(t)
	data := make([]byte, 8192)
	sim.NewRand(5).Bytes(data)
	if _, err := d.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	d.FlipBit(100, 3)
	got := make([]byte, len(data))
	if _, err := d.ReadAt(0, got, 0); err != nil {
		t.Fatalf("flip must be silent, read returned %v", err)
	}
	for i := range got {
		want := data[i]
		if i == 100 {
			want ^= 1 << 3
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
	if n := d.Stats().BitFlips; n != 1 {
		t.Fatalf("BitFlips = %d, want 1", n)
	}
	// Rewriting the range clears the damage — the repair path scrub uses.
	if _, err := d.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("rewrite did not clear the flipped bit")
	}
}

func TestBitFlipRateInjectsLatentErrors(t *testing.T) {
	cfg := testConfig()
	cfg.BitFlipRate = 1.0 // every program flips one bit in the touched block
	d, err := New("flaky", cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	sim.NewRand(6).Bytes(data)
	if _, err := d.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(0, got, 0); err != nil {
		t.Fatalf("latent error must be silent, read returned %v", err)
	}
	diff := 0
	for i := range got {
		for b := got[i] ^ data[i]; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits differ, want exactly 1", diff)
	}
	if n := d.Stats().BitFlips; n != 1 {
		t.Fatalf("BitFlips = %d, want 1", n)
	}
}

// TestErasedBuffersAreReused pins the free list of erased blocks' buffers:
// an erased block reads back zeros, a block programmed into a reused buffer
// shows none of its previous contents (programmed or bit-flipped), and a
// steady program/erase cycle allocates nothing.
func TestErasedBuffersAreReused(t *testing.T) {
	d := newDevice(t)
	cfg := d.Config()
	block := int64(cfg.EraseBlockSize)
	full := bytes.Repeat([]byte{0xa5}, cfg.EraseBlockSize)
	if _, err := d.WriteAt(0, full, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(sim.Second, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, cfg.EraseBlockSize)
	if _, err := d.ReadAt(2*sim.Second, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, cfg.EraseBlockSize)) {
		t.Fatal("erased block reads back non-zero bytes")
	}

	// Block 1's first page goes into block 0's old buffer; the rest of
	// block 1 must read as erased, not as block 0's 0xa5.
	page := bytes.Repeat([]byte{0x3c}, cfg.PageSize)
	if _, err := d.WriteAt(3*sim.Second, page, block); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(4*sim.Second, got, block); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, cfg.EraseBlockSize)
	copy(want, page)
	if !bytes.Equal(got, want) {
		t.Fatal("a block programmed after an erase shows stale bytes")
	}
	// A bit flipped past the programmed pages is stale too, once block 1
	// is erased and its buffer goes to block 2.
	d.FlipBit(2*block-1, 7)
	last := make([]byte, 1)
	if _, err := d.ReadAt(4*sim.Second, last, 2*block-1); err != nil || last[0] != 0x80 {
		t.Fatalf("bit flipped past the programmed pages reads back %#x, %v; want 0x80", last[0], err)
	}
	if _, err := d.Erase(5*sim.Second, block); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt(6*sim.Second, page, 2*block); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(7*sim.Second, got, 2*block); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a block programmed after an erase shows a bit flipped before it")
	}

	at := 8 * sim.Second
	cycle := func() {
		for off := int64(0); off < 4*block; off += block {
			var err error
			if at, err = d.WriteAt(at, page, off); err != nil {
				t.Fatal(err)
			}
			if at, err = d.Erase(at, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("steady program/erase cycle: %v allocations, want 0", n)
	}
}
