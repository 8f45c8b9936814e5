package compress

import "encoding/binary"

// The two content classes the benchmark writes, rendered by a copy of its
// row-template generator (the benchmark is its own module and pins its
// generator, so it is copied here rather than imported). Every sector is a
// 512-byte row template with a 16-byte header and noiseWords random 8-byte
// words written over its front: the database class compresses about 3x, the
// VDI class less.
var contentClasses = []struct {
	name       string
	noiseWords int
}{
	{"database", 18},
	{"vdi", 36},
}

const classSector = 512

var classTemplate = func() [classSector]byte {
	var t [classSector]byte
	const row = "|status=ACTIVE|region=us-west-2|balance=00000000|ts=2026-07-05|pad="
	for pos := 0; pos < len(t); {
		pos += copy(t[pos:], row)
	}
	return t
}()

// classMix and classNext are splitmix64, as the generator uses them.
func classMix(a, b uint64) uint64 {
	z := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func classNext(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// renderClass returns n bytes (a multiple of 512) of content id under seed,
// with noiseWords random words per sector.
func renderClass(noiseWords, n int, seed, id uint64) []byte {
	dst := make([]byte, n)
	for off := 0; off < n; off += classSector {
		sec := dst[off : off+classSector]
		copy(sec, classTemplate[:])
		j := uint64(off / classSector)
		s := classMix(seed^id*0x9e3779b97f4a7c15, j)
		binary.LittleEndian.PutUint64(sec[0:], id)
		binary.LittleEndian.PutUint64(sec[8:], j)
		for w := 0; w < noiseWords; w++ {
			binary.LittleEndian.PutUint64(sec[16+8*w:], classNext(&s))
		}
	}
	return dst
}
