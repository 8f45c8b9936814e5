package main

import (
	"encoding/binary"
	"math"
	"math/bits"

	"purity/internal/sim"
)

// The benchmark owns its input generators. They are frozen (golden_test.go
// pins them): a change here moves every baseline, so later PRs must not
// touch this file in a change that also claims a gain.

const (
	sectorSize = 512
	numStreams = 16
)

// rng is splitmix64: small, fast, and identical on every Go release.
type rng struct{ s uint64 }

func mix(a, b uint64) uint64 {
	z := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a uniform value in [0, n).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.u64(), n)
	return hi
}

// unit returns a uniform float64 in [0, 1).
func (r *rng) unit() float64 { return float64(r.u64()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with the YCSB skew (Gray et al.'s generator):
// rank 0 is the hottest item.
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan             float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(m uint64) float64 {
		var s float64
		for i := uint64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, zetan: zeta(n)}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// rowTemplate is the repeated text a "database page" sector starts from, so
// the content compresses the way structured rows do.
var rowTemplate = func() [sectorSize]byte {
	var t [sectorSize]byte
	const row = "|status=ACTIVE|region=us-west-2|balance=00000000|ts=2026-07-05|pad="
	for pos := 0; pos < len(t); {
		pos += copy(t[pos:], row)
	}
	return t
}()

// content renders sectors of generated data. A content id names one write's
// worth of bytes; sector j of id i is a function of (seed, i, j) alone, so
// the expected bytes of any read can be rendered again without keeping them.
// noiseWords 8-byte random words per sector set how well it compresses.
type content struct {
	seed       uint64
	noiseWords int
}

// Content classes: database pages compress about 3x and never duplicate;
// VDI image extents compress less and are drawn from a shared template pool.
const (
	dbNoiseWords  = 18
	vdiNoiseWords = 36
)

func (c content) fill(dst []byte, id uint64, firstSector int) {
	for off := 0; off < len(dst); off += sectorSize {
		sec := dst[off : off+sectorSize]
		copy(sec, rowTemplate[:])
		j := uint64(firstSector + off/sectorSize)
		r := rng{s: mix(c.seed^id*0x9e3779b97f4a7c15, j)}
		binary.LittleEndian.PutUint64(sec[0:], id)
		binary.LittleEndian.PutUint64(sec[8:], j)
		for w := 0; w < c.noiseWords; w++ {
			binary.LittleEndian.PutUint64(sec[16+8*w:], r.u64())
		}
	}
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one generated request. vol indexes the rig's volume list; id is the
// content a write carries.
type op struct {
	kind opKind
	vol  int
	off  int64
	n    int
	id   uint64
}

// stream is one logical initiator: its own generator state, and now, the
// virtual time at which its next request is issued.
type stream struct {
	id     int
	r      rng
	ops    uint64 // requests generated so far by a mixed workload
	writes uint64 // the unique part of a content id
	cursor int64  // writes so far, which is the sequential position in slots
	now    sim.Time
}

func newStreams(seed uint64, workload string) []*stream {
	var tag uint64
	for _, c := range []byte(workload) {
		tag = tag*131 + uint64(c)
	}
	ss := make([]*stream, numStreams)
	for i := range ss {
		ss[i] = &stream{id: i, r: rng{s: mix(mix(seed, tag), uint64(i))}}
	}
	return ss
}

// Content ids. 0 means "never written" (reads as zeros); 1..poolExtents are
// VDI templates; everything else is unique.
func prefillID(vol int, slot int64) uint64 { return 0xF<<60 | uint64(vol)<<40 | uint64(slot) }

func (s *stream) uniqueID() uint64 {
	s.writes++
	return uint64(s.id+1)<<48 | s.writes
}
