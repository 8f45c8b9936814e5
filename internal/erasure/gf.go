// Package erasure implements systematic Reed–Solomon erasure coding over
// GF(2^8), the redundancy scheme Purity stripes across drives (§4.2 of the
// paper, default geometry 7 data + 2 parity). Losing up to M shards — drive
// failures, or drives deliberately skipped because they are busy writing
// (§4.4) — is recoverable from any K of the K+M shards.
package erasure

import "encoding/binary"

// GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d), the same
// field used by most storage RS implementations.
const fieldPoly = 0x11d

var (
	expTable [512]byte // doubled so mul can skip a mod 255
	logTable [256]byte
	// mulTable[c][b] = c*b: one indexed load per byte for the byte-at-a-time
	// loops below. Encoding and reconstruction run on dot's word-wide
	// kernel (dot.go); these loops are what Verify checks parity with —
	// the implementation the kernel's tests compare against — and what dot
	// finishes the last few bytes of a shard with.
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= fieldPoly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for c := 1; c < 256; c++ {
		lc := int(logTable[c])
		for b := 1; b < 256; b++ {
			mulTable[c][b] = expTable[lc+int(logTable[b])]
		}
	}
}

// gfMul returns a*b in GF(2^8).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// gfDiv returns a/b in GF(2^8). Division by zero panics.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// gfInv returns the multiplicative inverse of a. Zero has no inverse.
func gfInv(a byte) byte {
	if a == 0 {
		panic("erasure: zero has no inverse in GF(2^8)")
	}
	return expTable[255-int(logTable[a])]
}

// gfExp returns a**n in GF(2^8).
func gfExp(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (int(logTable[a]) * n) % 255
	if l < 0 {
		l += 255
	}
	return expTable[l]
}

// mulAdd computes dst[i] ^= c * src[i] for all i: a row-times-shard
// accumulate, one source at a time.
func mulAdd(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		xorBytes(dst, src)
		return
	}
	row := &mulTable[c]
	n := len(src) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] ^= row[src[i]]
		dst[i+1] ^= row[src[i+1]]
		dst[i+2] ^= row[src[i+2]]
		dst[i+3] ^= row[src[i+3]]
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= row[src[i]]
	}
}

// mulSet computes dst[i] = c * src[i] for all i.
func mulSet(dst, src []byte, c byte) {
	if c == 0 {
		for i := range dst[:len(src)] {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	row := &mulTable[c]
	n := len(src) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = row[src[i]]
		dst[i+1] = row[src[i+1]]
		dst[i+2] = row[src[i+2]]
		dst[i+3] = row[src[i+3]]
	}
	for i := n; i < len(src); i++ {
		dst[i] = row[src[i]]
	}
}

// xorBytes computes dst[i] ^= src[i] eight bytes at a time — the c==1 case
// of mulAdd, which for systematic RS is one of every K coefficient rows.
func xorBytes(dst, src []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}
