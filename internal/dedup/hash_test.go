package dedup

import (
	"encoding/binary"
	"math/bits"
	"testing"

	"purity/internal/sim"
)

// xxh64 is XXH64 of any input with seed 0, written from the specification
// (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md) with its
// tail path: the reference the block-specialised Hash is held to.
func xxh64(in []byte) uint64 {
	const p5 = 0x27D4EB2F165667C5
	n := uint64(len(in))
	var h uint64
	if len(in) >= 32 {
		p1, p2 := uint64(prime1), uint64(prime2)
		v1, v2, v3, v4 := p1+p2, p2, uint64(0), -p1
		for ; len(in) >= 32; in = in[32:] {
			v1 = round(v1, binary.LittleEndian.Uint64(in[0:]))
			v2 = round(v2, binary.LittleEndian.Uint64(in[8:]))
			v3 = round(v3, binary.LittleEndian.Uint64(in[16:]))
			v4 = round(v4, binary.LittleEndian.Uint64(in[24:]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound(mergeRound(mergeRound(mergeRound(h, v1), v2), v3), v4)
	} else {
		h = p5
	}
	h += n
	for ; len(in) >= 8; in = in[8:] {
		h ^= round(0, binary.LittleEndian.Uint64(in))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
	}
	if len(in) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(in)) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		in = in[4:]
	}
	for _, c := range in {
		h ^= uint64(c) * p5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// TestHashKnownAnswers pins Hash to XXH64: the reference reproduces the
// specification's published value for the empty input, and Hash gives the
// reference's answers for a zero block and a block of bytes i % 256, and
// agrees with it on random blocks.
func TestHashKnownAnswers(t *testing.T) {
	if got := xxh64(nil); got != 0xef46db3751d8e999 {
		t.Fatalf("reference XXH64(empty) = %#x, want 0xef46db3751d8e999", got)
	}
	zero := make([]byte, BlockSize)
	ramp := make([]byte, BlockSize)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	for _, c := range []struct {
		name  string
		block []byte
		want  uint64
	}{
		{"zero block", zero, 0x8bbf7f68e8c3b87c},
		{"bytes i % 256", ramp, 0x7b3bfcaac0348ac0},
	} {
		if got := xxh64(c.block); got != c.want {
			t.Errorf("%s: reference = %#x, want %#x", c.name, got, c.want)
		}
		if got := Hash(c.block); got != c.want {
			t.Errorf("%s: Hash = %#x, want %#x", c.name, got, c.want)
		}
	}
	r := sim.NewRand(7)
	for i := 0; i < 1000; i++ {
		r.Bytes(zero)
		if got, want := Hash(zero), xxh64(zero); got != want {
			t.Fatalf("random block %d: Hash = %#x, reference %#x", i, got, want)
		}
	}
}

// TestHashNoCollisions hashes 2^16 distinct blocks of each of the
// benchmark's two content classes — 512 B row templates that differ only in
// a 16 B header and 18 (database) or 36 (VDI) random words — and finds no
// two with one hash. Near-identical blocks are where a weak hash collides.
func TestHashNoCollisions(t *testing.T) {
	const perClass = 1 << 16
	var template [BlockSize]byte
	const row = "|status=ACTIVE|region=us-west-2|balance=00000000|ts=2026-07-05|pad="
	for pos := 0; pos < BlockSize; {
		pos += copy(template[pos:], row)
	}
	seen := make(map[uint64]int, 2*perClass)
	block := make([]byte, BlockSize)
	for class, noiseWords := range []int{18, 36} {
		r := sim.NewRand(uint64(class + 1))
		for i := 0; i < perClass; i++ {
			copy(block, template[:])
			binary.LittleEndian.PutUint64(block[0:], uint64(i/64))
			binary.LittleEndian.PutUint64(block[8:], uint64(i%64))
			for w := 0; w < noiseWords; w++ {
				binary.LittleEndian.PutUint64(block[16+8*w:], r.Uint64())
			}
			h := Hash(block)
			if j, ok := seen[h]; ok {
				t.Fatalf("class %d block %d: hash %#x already seen at block %d", class, i, h, j)
			}
			seen[h] = class*perClass + i
		}
	}
}
