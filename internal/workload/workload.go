// Package workload generates the synthetic I/O streams the experiment
// harness runs in place of the paper's production traces: database pages
// (compressible, lightly duplicated), virtual machine images (heavily
// duplicated across tenants), VDI clone fleets (extremely duplicated),
// key-value records, and plain incompressible noise. Content is
// deterministic in (seed, class, block index), so re-running an experiment
// reproduces it exactly.
package workload

import (
	"fmt"

	"purity/internal/cblock"
	"purity/internal/sim"
)

// DataClass selects what the generated bytes look like.
type DataClass int

// Data classes, ordered roughly by how much Purity reduces them (§5.2-5.3:
// RDBMS 3-8x, server VMs 5-10x, VDI ≥20x).
const (
	ClassRandom   DataClass = iota // incompressible, unique
	ClassDatabase                  // structured rows: compresses 3-5x, few duplicates
	ClassVMImage                   // drawn from a shared template pool: dedups 5-10x
	ClassVDI                       // drawn from a tiny pool: dedups 20x+
	ClassZero                      // all zeros (thin-provisioning test)
)

// String names the class.
func (c DataClass) String() string {
	switch c {
	case ClassRandom:
		return "random"
	case ClassDatabase:
		return "database"
	case ClassVMImage:
		return "vm-image"
	case ClassVDI:
		return "vdi"
	case ClassZero:
		return "zero"
	default:
		return "unknown"
	}
}

// Gen produces deterministic content per (class, block index).
type Gen struct {
	Seed  uint64
	Class DataClass
	// Instance distinguishes tenants: template blocks are shared across
	// instances (that is the point of dedup), but per-instance unique
	// extents differ.
	Instance uint64
	// PoolBlocks is the number of distinct template blocks duplicated
	// classes draw from.
	PoolBlocks int
	// UniqueOneIn makes one in N blocks unique (VM images are mostly
	// golden-image blocks plus per-instance state); it pins the dedup
	// ratio near N as the working set grows.
	UniqueOneIn int
}

// NewGen returns a generator with class-appropriate defaults, tuned to the
// paper's reduction bands (server VMs 5-10x, VDI 20x+).
func NewGen(seed uint64, class DataClass) *Gen {
	g := &Gen{Seed: seed, Class: class}
	switch class {
	case ClassVMImage:
		g.PoolBlocks = 8192
		g.UniqueOneIn = 8
	case ClassVDI:
		g.PoolBlocks = 2048
		g.UniqueOneIn = 32
	}
	return g
}

// Block fills one 512 B sector with content for global block index idx.
func (g *Gen) Block(dst []byte, idx uint64) {
	switch g.Class {
	case ClassZero:
		for i := range dst {
			dst[i] = 0
		}
	case ClassRandom:
		// Each block's stream starts from an independent draw. Seeded with
		// idx times sim.Rand's own increment, neighbouring blocks' streams
		// would overlap, and the compressor would find matches between them.
		sim.NewRand(sim.NewRand(g.Seed ^ idx*0x9e3779b97f4a7c15 ^ 0x5152).Uint64()).Bytes(dst)
	case ClassDatabase:
		// Structured rows with a unique key per block: compressible but
		// not duplicate.
		row := fmt.Sprintf("|row=%012d|status=ACTIVE|region=us-west-2|balance=%08d|ts=2026-07-05|pad=", idx, idx*37%99999999)
		pos := 0
		for pos < len(dst) {
			pos += copy(dst[pos:], row)
		}
		// A pinch of entropy so compression is partial, like real pages.
		r := sim.NewRand(g.Seed ^ idx)
		for i := 0; i < len(dst)/16; i++ {
			dst[r.Intn(len(dst))] = byte(r.Uint64())
		}
	case ClassVMImage, ClassVDI:
		// Golden-image data duplicates in contiguous extents (files of the
		// base image), which is what anchor extension recovers (§4.7):
		// blocks come in 32 KiB extents drawn from a shared template pool,
		// with one extent in UniqueOneIn holding per-instance state that
		// never duplicates. The mix pins the dedup ratio near UniqueOneIn.
		const extentBlocks = 64
		extent := idx / extentBlocks
		within := idx % extentBlocks
		h := (extent*0x9e3779b97f4a7c15 + g.Seed) >> 7
		if g.UniqueOneIn > 0 && h%uint64(g.UniqueOneIn) == 0 {
			sim.NewRand(g.Seed ^ idx ^ 0x1717 ^ g.Instance*0x9e3779b9).Bytes(dst)
			return
		}
		tpl := h % uint64(g.PoolBlocks/extentBlocks+1)
		sim.NewRand(g.Seed ^ 0x7e57 ^ (tpl*extentBlocks + within)).Bytes(dst)
	}
}

// Fill produces n bytes (a sector multiple) starting at block index idx.
func (g *Gen) Fill(dst []byte, idx uint64) {
	for off := 0; off < len(dst); off += cblock.SectorSize {
		g.Block(dst[off:off+cblock.SectorSize], idx+uint64(off/cblock.SectorSize))
	}
}
