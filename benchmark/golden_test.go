package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// goldenOps pins the generators: a hash over the first 1,000 requests of each
// workload (kind, volume, offset, length, and the bytes a write carries) at
// seeds 1 and 2. If this test fails, the inputs changed and every recorded
// baseline is void; a change that means to do that must say so.
var goldenOps = map[string][2]uint64{
	"ingest":     {0xf5d29635043874bb, 0x942bf125371c5b1d},
	"readmiss":   {0x137f54ff614f966a, 0xf25591ef5711b26},
	"vdi-mixed":  {0x3ac882893d7c09ba, 0x26bb05a84f23702d},
	"wire-small": {0x6c233f2d36296dfb, 0xd758141f07ce1ce},
}

func opsHash(sp *spec, seed uint64) uint64 {
	r := &rig{data: content{seed: seed, noiseWords: dbNoiseWords}}
	if sp.name == "vdi-mixed" {
		r.imagePool()
	}
	wl := sp.build(sp.full, seed)
	streams := newStreams(seed, sp.name)
	h := fnv.New64a()
	buf := make([]byte, cblockBytes)
	var hdr [40]byte
	for i := 0; i < 1000; i++ {
		o := wl.next(streams[i%numStreams])
		binary.LittleEndian.PutUint64(hdr[0:], uint64(o.kind))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(o.vol))
		binary.LittleEndian.PutUint64(hdr[16:], uint64(o.off))
		binary.LittleEndian.PutUint64(hdr[24:], uint64(o.n))
		binary.LittleEndian.PutUint64(hdr[32:], o.id)
		h.Write(hdr[:])
		if o.kind == opWrite {
			r.render(buf[:o.n], o.id, 0)
			h.Write(buf[:o.n])
		}
	}
	return h.Sum64()
}

func TestGoldenOps(t *testing.T) {
	for _, sp := range specs {
		for i, seed := range []uint64{1, 2} {
			got, want := opsHash(sp, seed), goldenOps[sp.name][i]
			if got != want {
				t.Errorf("%s seed %d: first 1000 ops hash to %#x, golden is %#x", sp.name, seed, got, want)
			}
		}
	}
}

// TestPrefillContent pins what set-up writes, which the op hash does not see.
func TestPrefillContent(t *testing.T) {
	c := content{seed: 1, noiseWords: dbNoiseWords}
	buf := make([]byte, 2*pageBytes)
	c.fill(buf, prefillID(0, 7), 0)
	h := fnv.New64a()
	h.Write(buf)
	if got, want := fmt.Sprintf("%#x", h.Sum64()), goldenPrefill; got != want {
		t.Errorf("prefill extent hashes to %s, golden is %s", got, want)
	}
	// A read of part of an extent must render the same bytes as the whole.
	part := make([]byte, pageBytes)
	c.fill(part, prefillID(0, 7), pageBytes/sectorSize)
	if string(part) != string(buf[pageBytes:]) {
		t.Error("sectors rendered from the middle of an extent differ from the whole extent's")
	}
}

const goldenPrefill = "0x7e739feb324e4f48"
