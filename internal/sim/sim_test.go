package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1500, "1.50µs"},
		{2 * Millisecond, "2.00ms"},
		{3 * Second, "3.000s"},
		{-1500, "-1.50µs"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	d := 1500 * Microsecond
	if d.Millis() != 1.5 {
		t.Errorf("Millis = %v, want 1.5", d.Millis())
	}
	if d.Seconds() != 0.0015 {
		t.Errorf("Seconds = %v, want 0.0015", d.Seconds())
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max broken")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different-seed streams collided %d times", same)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(7)
	const buckets, n = 16, 160000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := n / buckets
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: %d draws, want ≈%d", i, c, want)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandBytes(t *testing.T) {
	r := NewRand(19)
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 64 {
			zero := 0
			for _, v := range b {
				if v == 0 {
					zero++
				}
			}
			if zero > n/8 {
				t.Fatalf("Bytes(%d): %d zero bytes, looks non-random", n, zero)
			}
		}
	}
}

func TestRandBytesProperty(t *testing.T) {
	// Same seed + same length always yields the same bytes.
	f := func(seed uint64, n uint8) bool {
		a := make([]byte, n)
		b := make([]byte, n)
		NewRand(seed).Bytes(a)
		NewRand(seed).Bytes(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(23)
	z := NewZipf(r, 1000, 0.99)
	counts := make(map[int64]int)
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must be much hotter than rank 100 and the distribution must
	// roughly follow 1/k^s ordering at the head.
	if counts[0] <= counts[100]*10 {
		t.Fatalf("Zipf head not hot: counts[0]=%d counts[100]=%d", counts[0], counts[100])
	}
	if counts[0] <= counts[1] {
		t.Fatalf("rank 0 (%d) not hotter than rank 1 (%d)", counts[0], counts[1])
	}
}

func TestZipfInvalidParams(t *testing.T) {
	for _, c := range []struct {
		n int64
		s float64
	}{{0, 0.5}, {10, 0}, {10, 1}, {10, 1.5}, {-1, 0.5}} {
		func() {
			defer func() { recover() }()
			NewZipf(NewRand(1), c.n, c.s)
			t.Errorf("NewZipf(%d, %v) did not panic", c.n, c.s)
		}()
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
