package dedup

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"purity/internal/sim"
)

func TestHashDistinct(t *testing.T) {
	a := make([]byte, BlockSize)
	b := make([]byte, BlockSize)
	b[0] = 1
	if Hash(a) == Hash(b) {
		t.Fatal("trivially different blocks collide")
	}
	if Hash(a) != Hash(a) {
		t.Fatal("hash not deterministic")
	}
}

func TestHashBlocks(t *testing.T) {
	data := make([]byte, 4*BlockSize)
	sim.NewRand(1).Bytes(data)
	hs := HashBlocks(data)
	if len(hs) != 4 {
		t.Fatalf("got %d hashes", len(hs))
	}
	for i := range hs {
		if hs[i] != Hash(data[i*BlockSize:(i+1)*BlockSize]) {
			t.Fatalf("hash %d mismatch", i)
		}
	}
}

func TestRecentIndexEviction(t *testing.T) {
	idx := NewRecentIndex(4)
	for i := uint64(0); i < 10; i++ {
		idx.Add(i, Candidate{Segment: i})
	}
	if idx.Len() != 4 {
		t.Fatalf("Len = %d, want 4", idx.Len())
	}
	// Oldest entries evicted, newest retained.
	if _, ok := idx.Lookup(0); ok {
		t.Fatal("entry 0 not evicted")
	}
	if c, ok := idx.Lookup(9); !ok || c.Segment != 9 {
		t.Fatal("entry 9 missing")
	}
	// Updating an existing hash does not grow the index.
	idx.Add(9, Candidate{Segment: 99})
	if idx.Len() != 4 {
		t.Fatalf("Len after update = %d", idx.Len())
	}
	if c, _ := idx.Lookup(9); c.Segment != 99 {
		t.Fatal("update lost")
	}
}

func TestShouldRecord(t *testing.T) {
	recorded := 0
	for i := 0; i < 64; i++ {
		if ShouldRecord(i, 8) {
			recorded++
		}
	}
	if recorded != 8 {
		t.Fatalf("recorded %d of 64 hashes at 1/8 sampling", recorded)
	}
	if !ShouldRecord(0, 8) {
		t.Fatal("block 0 must always be recorded")
	}
	if !ShouldRecord(5, 1) || !ShouldRecord(5, 0) {
		t.Fatal("sampling ≤ 1 must record everything")
	}
}

// fakeFetch serves one candidate cblock from memory.
func fakeFetch(sectors []byte) FetchFunc {
	return func(Candidate) ([]byte, bool) { return sectors, true }
}

func TestExtendAnchorFullMatch(t *testing.T) {
	blob := make([]byte, 16*BlockSize)
	sim.NewRand(2).Bytes(blob)
	// New write is an exact duplicate; anchor in the middle.
	run, ok := ExtendAnchor(blob, 7, Candidate{SectorIdx: 7}, fakeFetch(blob))
	if !ok {
		t.Fatal("anchor verify failed")
	}
	if run.Start != 0 || run.Count != 16 || run.CandStart != 0 {
		t.Fatalf("run = %+v, want full 16 blocks", run)
	}
}

func TestExtendAnchorMisaligned(t *testing.T) {
	// Candidate cblock holds blocks [A0..A15]. The new write contains
	// [junk, junk, A3..A12, junk]: the duplicate run starts at block 2 of
	// the write and sector 3 of the candidate — arbitrary alignment.
	cand := make([]byte, 16*BlockSize)
	sim.NewRand(3).Bytes(cand)
	write := make([]byte, 13*BlockSize)
	sim.NewRand(4).Bytes(write)
	copy(write[2*BlockSize:12*BlockSize], cand[3*BlockSize:13*BlockSize])

	// Anchor at write block 5 == candidate sector 6.
	run, ok := ExtendAnchor(write, 5, Candidate{SectorIdx: 6}, fakeFetch(cand))
	if !ok {
		t.Fatal("anchor verify failed")
	}
	if run.Start != 2 || run.Count != 10 || run.CandStart != 3 {
		t.Fatalf("run = %+v, want start 2 count 10 candStart 3", run)
	}
}

func TestExtendAnchorCollisionRejected(t *testing.T) {
	cand := make([]byte, 4*BlockSize)
	write := make([]byte, 4*BlockSize)
	sim.NewRand(5).Bytes(cand)
	sim.NewRand(6).Bytes(write)
	if _, ok := ExtendAnchor(write, 1, Candidate{SectorIdx: 1}, fakeFetch(cand)); ok {
		t.Fatal("non-matching anchor verified")
	}
}

func TestExtendAnchorStaleCandidate(t *testing.T) {
	write := make([]byte, 4*BlockSize)
	// Fetch failure (GC moved the data).
	if _, ok := ExtendAnchor(write, 0, Candidate{}, func(Candidate) ([]byte, bool) { return nil, false }); ok {
		t.Fatal("stale candidate accepted")
	}
	// SectorIdx outside the fetched cblock.
	small := make([]byte, 2*BlockSize)
	if _, ok := ExtendAnchor(write, 0, Candidate{SectorIdx: 9}, fakeFetch(small)); ok {
		t.Fatal("out-of-range sector index accepted")
	}
}

func TestAnchorDetectsRunsAtAllAlignments(t *testing.T) {
	// The paper's claim (§4.7): duplicate sequences of ≥ 8 blocks are
	// detected regardless of alignment, using sampled hashes. Simulate the
	// full pipeline: candidate written with 1/8 hash sampling; a new write
	// duplicates 8 of its blocks at every possible phase; at least one
	// sampled hash must hit, and anchor extension must recover ≥ the
	// overlapping run.
	r := sim.NewRand(7)
	cand := make([]byte, 64*BlockSize)
	r.Bytes(cand)
	candHashes := HashBlocks(cand)
	idx := NewRecentIndex(1024)
	for i, h := range candHashes {
		if ShouldRecord(i, Sampling) {
			idx.Add(h, Candidate{SectorIdx: uint64(i)})
		}
	}
	for phase := 0; phase < 40; phase++ {
		write := make([]byte, 16*BlockSize)
		r.Bytes(write)
		// 8 duplicate blocks from candidate offset `phase`, placed at
		// write block 4.
		copy(write[4*BlockSize:12*BlockSize], cand[phase*BlockSize:(phase+8)*BlockSize])

		found := false
		for i, h := range HashBlocks(write) {
			c, ok := idx.Lookup(h)
			if !ok {
				continue
			}
			run, ok := ExtendAnchor(write, i, c, fakeFetch(cand))
			if ok && run.Count >= 8 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("phase %d: 8-block duplicate run not detected", phase)
		}
	}
}

func TestExtendAnchorProperty(t *testing.T) {
	// The returned run must actually be byte-identical.
	f := func(seed uint64, anchorRaw, phaseRaw uint8) bool {
		r := sim.NewRand(seed)
		cand := make([]byte, 32*BlockSize)
		r.Bytes(cand)
		write := make([]byte, 16*BlockSize)
		r.Bytes(write)
		phase := int(phaseRaw) % 16
		copy(write[4*BlockSize:12*BlockSize], cand[phase*BlockSize:(phase+8)*BlockSize])
		anchor := 4 + int(anchorRaw)%8
		ci := phase + anchor - 4
		run, ok := ExtendAnchor(write, anchor, Candidate{SectorIdx: uint64(ci)}, fakeFetch(cand))
		if !ok {
			return false
		}
		a := write[run.Start*BlockSize : (run.Start+run.Count)*BlockSize]
		b := cand[run.CandStart*BlockSize : (run.CandStart+run.Count)*BlockSize]
		return bytes.Equal(a, b) && run.Count >= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHashBlocksMatchesHash pins HashBlocks to Hash block by block, from no
// block to a cblock's 64 with one fewer and one more, and checks that bytes
// past the last whole block are ignored.
func TestHashBlocksMatchesHash(t *testing.T) {
	for _, blocks := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65} {
		for _, tail := range []int{0, 1, BlockSize - 1} {
			data := make([]byte, blocks*BlockSize+tail)
			sim.NewRand(uint64(blocks)*1000 + uint64(tail) + 1).Bytes(data)
			hs := HashBlocks(data)
			if len(hs) != blocks {
				t.Fatalf("%d blocks + %d bytes: got %d hashes", blocks, tail, len(hs))
			}
			for i, h := range hs {
				if want := Hash(data[i*BlockSize : (i+1)*BlockSize]); h != want {
					t.Fatalf("%d blocks + %d bytes: hash %d = %#x, want %#x", blocks, tail, i, h, want)
				}
			}
		}
	}
}

// benchSink keeps the compiler from discarding a benchmark's result.
var benchSink uint64

// benchInput is 64 MiB of seeded bytes: far larger than any cache level,
// so a benchmark that walks it 32 KiB at a time reads its input from
// memory, as a write's payload arrives.
func benchInput() []byte {
	data := make([]byte, 64<<20)
	sim.NewRand(1).Bytes(data)
	return data
}

// BenchmarkHashBlocks32K measures what a 32 KiB write pays to hash its 64
// blocks.
func BenchmarkHashBlocks32K(b *testing.B) {
	const extent = 32 << 10
	data := benchInput()
	b.SetBytes(extent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * extent % len(data)
		hs := HashBlocks(data[off : off+extent])
		benchSink += hs[len(hs)-1]
	}
}

// BenchmarkExtendAnchor32K measures the byte-verify of a whole-extent
// duplicate — what every dedup hit of a 32 KiB write pays: the anchor
// block, then 63 blocks of extension against the candidate's sectors.
func BenchmarkExtendAnchor32K(b *testing.B) {
	const extent = 32 << 10
	// The second half is the stored copy of the first: distinct memory, so
	// the comparison reads both sides.
	data := benchInput()
	half := len(data) / 2
	copy(data[half:], data[:half])
	b.SetBytes(extent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * extent % half
		run, ok := ExtendAnchor(data[off:off+extent], 0, Candidate{}, fakeFetch(data[half+off:half+off+extent]))
		if !ok || run.Count != extent/BlockSize {
			b.Fatalf("run = %+v, %v", run, ok)
		}
	}
}

// TestRecentStripeAgainstModel churns one open-addressed stripe with random
// adds and lookups and compares every observation against the simple
// map-plus-ring model the table replaces. Small key spaces force constant
// probe-chain collisions and back-shift deletes.
func TestRecentStripeAgainstModel(t *testing.T) {
	for _, keySpace := range []uint64{7, 40, 1000} {
		st := newRecentStripe(16)
		model := make(map[uint64]Candidate, 16)
		ring := make([]uint64, 16)
		pos := 0
		rng := sim.NewRand(uint64(keySpace) * 7919)
		for step := 0; step < 20000; step++ {
			h := uint64(rng.Intn(int(keySpace)))
			if rng.Intn(3) == 0 {
				var got Candidate
				i, ok := st.find(h)
				if ok {
					got = st.vals[i]
				}
				want, wok := model[h]
				if ok != wok || got != want {
					t.Fatalf("keySpace %d step %d: find(%d) = %v,%v want %v,%v",
						keySpace, step, h, got, ok, want, wok)
				}
				continue
			}
			c := Candidate{Segment: uint64(step), SectorIdx: h}
			stripeAdd(st, h, c)
			if _, exists := model[h]; !exists {
				if len(model) >= 16 {
					delete(model, ring[pos])
				}
				ring[pos] = h
				pos = (pos + 1) % 16
			}
			model[h] = c
			if st.n != len(model) {
				t.Fatalf("keySpace %d step %d: n = %d want %d", keySpace, step, st.n, len(model))
			}
		}
	}
}

// stripeAdd is RecentIndex.Add on one stripe directly, so the model test
// exercises the probe-chain machinery without the routing.
func stripeAdd(r *recentStripe, hash uint64, c Candidate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(hash, c)
}

// TestRecentIndexAgainstStripedModel models the full striped index: each
// stripe is an independent FIFO of 1/Nth the capacity, routed by the low
// hash bits.
func TestRecentIndexAgainstStripedModel(t *testing.T) {
	const capacity = 64
	for _, keySpace := range []uint64{90, 4000} {
		idx := NewRecentIndex(capacity)
		nStripes := len(idx.stripes)
		if nStripes < 2 {
			t.Fatalf("capacity %d built %d stripes; want striping", capacity, nStripes)
		}
		perStripe := capacity / nStripes
		type stripeModel struct {
			entries map[uint64]Candidate
			ring    []uint64
			pos     int
		}
		models := make([]*stripeModel, nStripes)
		for i := range models {
			models[i] = &stripeModel{entries: map[uint64]Candidate{}, ring: make([]uint64, perStripe)}
		}
		rng := sim.NewRand(keySpace * 104729)
		for step := 0; step < 20000; step++ {
			h := uint64(rng.Intn(int(keySpace)))
			m := models[h&idx.mask]
			if rng.Intn(3) == 0 {
				got, ok := idx.Lookup(h)
				want, wok := m.entries[h]
				if ok != wok || got != want {
					t.Fatalf("keySpace %d step %d: Lookup(%d) = %v,%v want %v,%v",
						keySpace, step, h, got, ok, want, wok)
				}
				continue
			}
			c := Candidate{Segment: uint64(step), SectorIdx: h}
			idx.Add(h, c)
			if _, exists := m.entries[h]; !exists {
				if len(m.entries) >= perStripe {
					delete(m.entries, m.ring[m.pos])
				}
				m.ring[m.pos] = h
				m.pos = (m.pos + 1) % perStripe
			}
			m.entries[h] = c
			total := 0
			for _, sm := range models {
				total += len(sm.entries)
			}
			if idx.Len() != total {
				t.Fatalf("keySpace %d step %d: Len = %d want %d", keySpace, step, idx.Len(), total)
			}
		}
	}
}

// TestRecentIndexConcurrent hammers the striped index from many goroutines
// with overlapping key ranges — run under -race by scripts/check.sh. Even
// workers Add one hash at a time; odd ones AddCBlock a run of consecutive
// keys, carrying the run's first key in PhysLen. Every hit must return a
// value some goroutine actually stored for that hash.
func TestRecentIndexConcurrent(t *testing.T) {
	idx := NewRecentIndex(1 << 10)
	const (
		workers = 8
		keys    = 512
		steps   = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sim.NewRand(uint64(w+1) * 31337)
			for i := 0; i < steps; i++ {
				k := uint64(rng.Intn(keys))
				h := k * 0x9E3779B9
				if i%3 == 0 {
					c, ok := idx.Lookup(h)
					stored := c.SectorIdx
					if c.Segment%2 == 1 {
						stored = (c.PhysLen + c.SectorIdx) * 0x9E3779B9
					}
					if ok && stored != h {
						t.Errorf("worker %d: Lookup(%d) returned candidate for wrong hash %d", w, h, stored)
						return
					}
					continue
				}
				if w%2 == 0 {
					idx.Add(h, Candidate{Segment: uint64(w), SectorIdx: h})
					continue
				}
				n := 1 + rng.Intn(min(maxCBlockBlocks, keys-int(k)))
				hashes := make([]uint64, n)
				for j := range hashes {
					hashes[j] = (k + uint64(j)) * 0x9E3779B9
				}
				idx.AddCBlock(hashes, Candidate{Segment: uint64(w), PhysLen: k})
			}
		}()
	}
	wg.Wait()
	if n := idx.Len(); n == 0 {
		t.Fatal("index empty after concurrent churn")
	}
}

// TestNewRecentIndexDefersTables pins the recent index's memory to the
// writes that fill it: every Format and every recovery builds an index,
// and recovery adds nothing to it, so a stripe's tables are built on its
// first Add.
func TestNewRecentIndexDefersTables(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	x := NewRecentIndex(1 << 16)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 16<<10 {
		t.Errorf("NewRecentIndex(1<<16) allocated %d bytes, want at most 16 KiB", got)
	}
	if _, ok := x.Lookup(42); ok {
		t.Fatal("a new index found a hash")
	}
	x.Add(42, Candidate{Segment: 7})
	if c, ok := x.Lookup(42); !ok || c.Segment != 7 {
		t.Fatalf("Lookup after Add = %+v, %v", c, ok)
	}
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1", x.Len())
	}
}

// TestAddCBlockMatchesAdd: recording cblocks with AddCBlock leaves the index
// as Add for each of their hashes in order does — the same Len after every
// cblock and the same Lookup answer for every key — through stripe FIFO
// evictions and repeated hashes within a cblock.
func TestAddCBlockMatchesAdd(t *testing.T) {
	for _, capacity := range []int{16, 64, 1 << 10} {
		for _, keySpace := range []int{40, 300, 5000} {
			batched, single := NewRecentIndex(capacity), NewRecentIndex(capacity)
			rng := sim.NewRand(uint64(capacity*keySpace) + 1)
			for step := 0; step < 400; step++ {
				hashes := make([]uint64, 1+rng.Intn(maxCBlockBlocks))
				for i := range hashes {
					hashes[i] = uint64(rng.Intn(keySpace)) * 0x9E3779B97F4A7C15
				}
				c := Candidate{Segment: uint64(step), SegOff: uint64(rng.Intn(1 << 20)), PhysLen: uint64(len(hashes))}
				batched.AddCBlock(hashes, c)
				for i, h := range hashes {
					c.SectorIdx = uint64(i)
					single.Add(h, c)
				}
				if b, s := batched.Len(), single.Len(); b != s {
					t.Fatalf("capacity %d keySpace %d step %d: Len %d after AddCBlock, %d after Adds", capacity, keySpace, step, b, s)
				}
			}
			for k := 0; k < keySpace; k++ {
				h := uint64(k) * 0x9E3779B97F4A7C15
				bc, bok := batched.Lookup(h)
				sc, sok := single.Lookup(h)
				if bc != sc || bok != sok {
					t.Fatalf("capacity %d keySpace %d: Lookup(%#x) = %+v,%v after AddCBlock, %+v,%v after Adds", capacity, keySpace, h, bc, bok, sc, sok)
				}
			}
		}
	}
}
