package erasure

import "encoding/binary"

// hiBits is the high bit of each of the eight field elements packed in a
// 64-bit word.
const hiBits = 0x8080808080808080

// mulX multiplies eight packed field elements by x. The seven low bits of
// each byte shift up without crossing into the next byte once its high bit
// is cleared, and a set high bit folds back in as x^8 = x^4+x^3+x^2+1, the
// field polynomial's low byte: 0 or 1 times it fits the element's own byte.
func mulX(w uint64) uint64 {
	hi := w & hiBits
	return (w^hi)<<1 ^ hi>>7*(fieldPoly&0xff)
}

// dot computes out[i] = Σ_j coef[j]·srcs[j][i] for every i < len(out): one
// row of a matrix–shards product, which is all a parity encode or a shard
// reconstruction is, in a single pass over out. Each source must be at least
// len(out) long and out must not overlap one.
//
// Writing coef[j] as Σ_b bit_b(coef[j])·x^b turns the sum into
// Σ_b x^b·(XOR of the sources whose coefficient has bit b). Horner's rule
// evaluates that from bit 7 down on eight field elements per 64-bit word:
// seven multiplications by x per output word however many sources there
// are, and one XOR per set coefficient bit. The table loops (mulSet, then
// mulAdd K−1 times) pay a table load and a read-modify-write of out for
// every source byte instead.
func dot(out []byte, coef []byte, srcs [][]byte) {
	// planes[b] lists the sources whose coefficient has bit 7−b, so the
	// word loop walks lists and never tests a coefficient. The lists share
	// one backing array, on the stack up to 64 set bits (K ≤ 8 whatever the
	// coefficients); a wider geometry lets append move it to the heap.
	var backing [64][]byte
	var planes [8][][]byte
	flat := backing[:0]
	for b := range planes {
		lo := len(flat)
		for j, c := range coef {
			if c>>(7-b)&1 != 0 {
				flat = append(flat, srcs[j])
			}
		}
		planes[b] = flat[lo:len(flat):len(flat)]
	}
	// Horner's rule may start at the highest plane that has a source: the
	// all-ones row of the first parity shard has only the last.
	top := 0
	for top < len(planes)-1 && len(planes[top]) == 0 {
		top++
	}
	n := len(out) &^ (dotStep - 1)
	dotWords(out[:n], &planes, top)

	// The tail shorter than one step goes through the byte tables.
	if n < len(out) {
		mulSet(out[n:], srcs[0][n:len(out)], coef[0])
		for j := 1; j < len(coef); j++ {
			mulAdd(out[n:], srcs[j][n:len(out)], coef[j])
		}
	}
}

// dotStep is how many bytes dotWords produces per iteration: four words,
// which keeps the accumulators and the loop's pointers in registers.
const dotStep = 32

// dotWords is dot's word loop over planes[top:]; len(out) is a multiple of
// dotStep. It is a function of its own, and takes the planes as an array and
// an index rather than a slice, so that the compiler's register allocation
// sees only what the loop uses.
func dotWords(out []byte, planes *[8][][]byte, top int) {
	for i := 0; i < len(out); i += dotStep {
		var a0, a1, a2, a3 uint64
		for b := top; b < len(planes); b++ {
			a0, a1, a2, a3 = mulX(a0), mulX(a1), mulX(a2), mulX(a3)
			for _, s := range planes[b] {
				s = s[i : i+dotStep : i+dotStep]
				a0 ^= binary.LittleEndian.Uint64(s)
				a1 ^= binary.LittleEndian.Uint64(s[8:])
				a2 ^= binary.LittleEndian.Uint64(s[16:])
				a3 ^= binary.LittleEndian.Uint64(s[24:])
			}
		}
		o := out[i : i+dotStep : i+dotStep]
		binary.LittleEndian.PutUint64(o, a0)
		binary.LittleEndian.PutUint64(o[8:], a1)
		binary.LittleEndian.PutUint64(o[16:], a2)
		binary.LittleEndian.PutUint64(o[24:], a3)
	}
}
