package erasure

import (
	"testing"
	"testing/quick"
)

func TestGFMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if gfMul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for a=%d", a)
		}
		if gfMul(byte(a), 0) != 0 || gfMul(0, byte(a)) != 0 {
			t.Fatalf("a*0 != 0 for a=%d", a)
		}
	}
}

func TestGFMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return gfMul(a, b) == gfMul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		return gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFDistributive(t *testing.T) {
	f := func(a, b, c byte) bool {
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFDivInvertsMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			p := gfMul(byte(a), byte(b))
			if gfDiv(p, byte(b)) != byte(a) {
				t.Fatalf("(%d*%d)/%d != %d", a, b, b, a)
			}
		}
	}
}

func TestGFInv(t *testing.T) {
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
	}
}

func TestGFInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gfInv(0) did not panic")
		}
	}()
	gfInv(0)
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gfDiv(x, 0) did not panic")
		}
	}()
	gfDiv(5, 0)
}

func TestGFExp(t *testing.T) {
	if gfExp(0, 0) != 1 {
		t.Error("0^0 != 1")
	}
	if gfExp(0, 5) != 0 {
		t.Error("0^5 != 0")
	}
	for a := 1; a < 256; a++ {
		// a^3 == a*a*a
		want := gfMul(gfMul(byte(a), byte(a)), byte(a))
		if gfExp(byte(a), 3) != want {
			t.Fatalf("a^3 mismatch for a=%d", a)
		}
		// a^255 == 1 (multiplicative group order)
		if gfExp(byte(a), 255) != 1 {
			t.Fatalf("a^255 != 1 for a=%d", a)
		}
	}
}

func TestMulAddMatchesScalar(t *testing.T) {
	src := make([]byte, 300)
	for i := range src {
		src[i] = byte(i * 7)
	}
	for _, c := range []byte{0, 1, 2, 0x53, 0xff} {
		dst := make([]byte, len(src))
		for i := range dst {
			dst[i] = byte(i * 13)
		}
		want := make([]byte, len(src))
		for i := range want {
			want[i] = dst[i] ^ gfMul(c, src[i])
		}
		mulAdd(dst, src, c)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("mulAdd c=%#x mismatch at %d", c, i)
			}
		}
	}
}

func TestMulSetMatchesScalar(t *testing.T) {
	src := make([]byte, 300)
	for i := range src {
		src[i] = byte(i * 11)
	}
	for _, c := range []byte{0, 1, 2, 0x53, 0xff} {
		dst := make([]byte, len(src))
		mulSet(dst, src, c)
		for i := range dst {
			if dst[i] != gfMul(c, src[i]) {
				t.Fatalf("mulSet c=%#x mismatch at %d", c, i)
			}
		}
	}
}

func TestMulAddUnalignedLengths(t *testing.T) {
	// The chunked fast paths must agree with scalar math on every length
	// around the 4- and 8-byte unroll boundaries.
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65} {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i*37 + 1)
		}
		for _, c := range []byte{1, 2, 0x8e, 0xff} {
			dst := make([]byte, n)
			want := make([]byte, n)
			for i := range dst {
				dst[i] = byte(i * 29)
				want[i] = dst[i] ^ gfMul(c, src[i])
			}
			mulAdd(dst, src, c)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("n=%d c=%#x: mismatch at %d", n, c, i)
				}
			}
		}
	}
}

// BenchmarkMulAdd times the byte-table loops' two paths, the c==1 XOR and
// the table lookup: the reference Verify runs and BenchmarkDot7x128K's
// baseline, no longer the loop parity encode and reconstruction run.
func BenchmarkMulAdd(b *testing.B) {
	src := make([]byte, 32<<10)
	dst := make([]byte, 32<<10)
	for i := range src {
		src[i] = byte(i)
	}
	for _, bc := range []struct {
		name string
		c    byte
	}{{"xor-c1", 1}, {"table-c83", 0x53}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				mulAdd(dst, src, bc.c)
			}
		})
	}
}

func BenchmarkMulSet(b *testing.B) {
	src := make([]byte, 32<<10)
	dst := make([]byte, 32<<10)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		mulSet(dst, src, 0x53)
	}
}

func TestMatrixInvert(t *testing.T) {
	// Invert random-ish Vandermonde submatrices and check M * M^-1 = I.
	for _, n := range []int{1, 2, 3, 5, 7, 9} {
		v := vandermonde(n+3, n)
		m := v.subRows([]int{0, 2, 3, 1, 5, 4, 6, 8, 7}[:n])
		inv, err := m.invert()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		prod := m.mul(inv)
		id := identity(n)
		for i := range prod.data {
			if prod.data[i] != id.data[i] {
				t.Fatalf("n=%d: M*M^-1 != I", n)
			}
		}
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	m := newMatrix(2, 2)
	m.set(0, 0, 1)
	m.set(0, 1, 2)
	m.set(1, 0, 1)
	m.set(1, 1, 2)
	if _, err := m.invert(); err == nil {
		t.Fatal("inverting singular matrix did not fail")
	}
}
