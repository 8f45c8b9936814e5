package workload

import (
	"bytes"
	"testing"

	"purity/internal/cblock"
	"purity/internal/compress"
	"purity/internal/core"
	"purity/internal/sim"
)

func TestGenDeterminism(t *testing.T) {
	for _, class := range []DataClass{ClassRandom, ClassDatabase, ClassVMImage, ClassVDI, ClassZero} {
		a := NewGen(5, class)
		b := NewGen(5, class)
		bufA := make([]byte, 4096)
		bufB := make([]byte, 4096)
		a.Fill(bufA, 100)
		b.Fill(bufB, 100)
		if !bytes.Equal(bufA, bufB) {
			t.Errorf("%v: same seed, different content", class)
		}
		if class.String() == "unknown" {
			t.Errorf("class %d has no name", class)
		}
	}
}

func TestGenZero(t *testing.T) {
	g := NewGen(1, ClassZero)
	buf := make([]byte, 2048)
	buf[0] = 0xff
	g.Fill(buf, 0)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("zero class byte %d = %#x", i, b)
		}
	}
}

// TestGenRandomIncompressible: the incompressible class is that, extent by
// extent as the array compresses it: 64 extents of 32 KiB compress to no
// better than 1.01× in all. Blocks seeded one sim.Rand increment apart
// shared stream tails, and compressed to 1.14× through the array.
func TestGenRandomIncompressible(t *testing.T) {
	g := NewGen(1, ClassRandom)
	extent := make([]byte, 32<<10)
	var in, out int
	var frame []byte
	for e := uint64(0); e < 64; e++ {
		g.Fill(extent, e*uint64(len(extent)/cblock.SectorSize))
		frame = compress.Compress(frame[:0], extent)
		in += len(extent)
		out += len(frame)
	}
	if ratio := float64(in) / float64(out); ratio > 1.01 {
		t.Fatalf("incompressible class compressed %.4f×, want ≤ 1.01×", ratio)
	}
}

func TestGenDatabaseUniqueAndCompressible(t *testing.T) {
	g := NewGen(1, ClassDatabase)
	a := make([]byte, 512)
	b := make([]byte, 512)
	g.Block(a, 1)
	g.Block(b, 2)
	if bytes.Equal(a, b) {
		t.Fatal("database blocks duplicate")
	}
	// Structured rows should have repeated substrings.
	if !bytes.Contains(a, []byte("status=ACTIVE")) {
		t.Fatal("database block lost its structure")
	}
}

func TestGenVMPoolDuplication(t *testing.T) {
	// Two instances share template extents but differ in unique extents.
	g1 := NewGen(1, ClassVMImage)
	g2 := NewGen(1, ClassVMImage)
	g2.Instance = 99
	const blocks = 64 * 64 // 64 extents
	dup, uniq := 0, 0
	a := make([]byte, 512)
	b := make([]byte, 512)
	for i := uint64(0); i < blocks; i += 64 {
		g1.Block(a, i)
		g2.Block(b, i)
		if bytes.Equal(a, b) {
			dup++
		} else {
			uniq++
		}
	}
	if dup == 0 {
		t.Fatal("instances share no template extents")
	}
	if uniq == 0 {
		t.Fatal("instances have no unique extents")
	}
	// Roughly 1-in-8 extents unique.
	frac := float64(uniq) / float64(dup+uniq)
	if frac < 0.02 || frac > 0.4 {
		t.Fatalf("unique extent fraction = %.2f, want ≈1/8", frac)
	}
}

func TestRunClosedLoopOnArray(t *testing.T) {
	arr, err := core.Format(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := arr.CreateVolume(0, "w", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	now, err := Prefill(arr, vol, 2<<20, 32<<10, ClassDatabase, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunClosedLoop(arr, vol, 2<<20,
		Mix{ReadFraction: 0.5, IOSize: 32 << 10, Class: ClassDatabase, Seed: 2},
		8, 200, now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 200 || res.Errors != 0 {
		t.Fatalf("results = %+v", res)
	}
	if res.ReadOps == 0 || res.WriteOps == 0 {
		t.Fatalf("mix not mixed: %d reads, %d writes", res.ReadOps, res.WriteOps)
	}
	if res.ReadOps+res.WriteOps != 200 {
		t.Fatalf("op accounting broken: %d + %d", res.ReadOps, res.WriteOps)
	}
	if res.IOPS <= 0 || res.SimDuration <= 0 {
		t.Fatalf("throughput accounting broken: %+v", res)
	}
	if res.ReadLat.Count() != uint64(res.ReadOps) {
		t.Fatal("read histogram count mismatch")
	}
}

func TestRunClosedLoopValidation(t *testing.T) {
	arr, err := core.Format(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunClosedLoop(arr, 1, 1<<20, Mix{IOSize: 100}, 1, 1, 0); err == nil {
		t.Fatal("unaligned IOSize accepted")
	}
	if _, err := RunClosedLoop(arr, 1, 1000, Mix{IOSize: 32 << 10}, 1, 1, 0); err == nil {
		t.Fatal("volume smaller than one IO accepted")
	}
}

func TestRunClosedLoopSequentialCoversVolume(t *testing.T) {
	arr, err := core.Format(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	volBytes := int64(1 << 20)
	vol, _, err := arr.CreateVolume(0, "seq", volBytes)
	if err != nil {
		t.Fatal(err)
	}
	ops := int(volBytes / (32 << 10))
	res, err := RunClosedLoop(arr, vol, volBytes,
		Mix{ReadFraction: 0, IOSize: 32 << 10, Sequential: true, Class: ClassDatabase, Seed: 3},
		4, ops, 0)
	if err != nil || res.Errors != 0 {
		t.Fatalf("sequential run: %v, %+v", err, res)
	}
	// Every sector must now be written (nonzero somewhere in each chunk).
	data, _, err := arr.ReadAt(res.SimDuration, vol, 0, int(volBytes))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 32 << 10 {
		allZero := true
		for _, b := range data[off : off+32<<10] {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			t.Fatalf("chunk at %d never written", off)
		}
	}
}

func TestZipfMixSkewsAccesses(t *testing.T) {
	arr, err := core.Format(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := arr.CreateVolume(0, "z", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	now, err := Prefill(arr, vol, 4<<20, 32<<10, ClassDatabase, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunClosedLoop(arr, vol, 4<<20,
		Mix{ReadFraction: 1, IOSize: 32 << 10, ZipfSkew: 0.99, Class: ClassDatabase, Seed: 2},
		4, 300, now)
	if err != nil || res.Errors != 0 {
		t.Fatalf("zipf run: %v, %+v", err, res)
	}
	// Hot-set reads should be cache friendly: plenty of cache hits.
	if arr.Stats().CacheHits == 0 {
		t.Fatal("zipfian reads produced no cache hits")
	}
}

func TestPrefillRoundTrip(t *testing.T) {
	arr, err := core.Format(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := arr.CreateVolume(0, "p", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	now, err := Prefill(arr, vol, 1<<20, 32<<10, ClassVMImage, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reading back must match the generator (with the volume as instance).
	gen := NewGen(7, ClassVMImage)
	gen.Instance = uint64(vol)
	want := make([]byte, 32<<10)
	for _, off := range []int64{0, 512 << 10, 1<<20 - 32<<10} {
		gen.Fill(want, uint64(off/cblock.SectorSize))
		got, d, err := arr.ReadAt(now, vol, off, len(want))
		if err != nil {
			t.Fatal(err)
		}
		now = d
		if !bytes.Equal(got, want) {
			t.Fatalf("prefill mismatch at %d", off)
		}
	}
	_ = sim.Time(now)
}
