package sim

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64 core). Simulations
// and workload generators use it instead of math/rand so that results are
// stable across Go releases; reproducibility of experiment tables matters
// more than statistical sophistication here.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Distinct seeds give
// independent-looking streams; a zero seed is remapped so the stream is
// never degenerate.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bytes fills b with pseudo-random bytes.
func (r *Rand) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Zipf generates Zipf-distributed values in [0, n) with skew s in (0, 1).
// YCSB's default is s ≈ 0.99, which models the hot-key skew of the key-value
// workloads in the paper's §2.3.
type Zipf struct {
	r    *Rand
	n    int64
	s    float64
	zeta float64 // generalized harmonic number H_{n,s}
	eta  float64
	half float64 // zeta(2, s)
}

// NewZipf returns a Zipf generator over [0, n) with exponent s.
// It panics unless n > 0 and 0 < s < 1.
func NewZipf(r *Rand, n int64, s float64) *Zipf {
	if n <= 0 || s <= 0 || s >= 1 {
		panic("sim: invalid Zipf parameters")
	}
	z := &Zipf{r: r, n: n, s: s}
	for i := int64(1); i <= n; i++ {
		z.zeta += 1 / math.Pow(float64(i), s)
	}
	z.half = 1 + 1/math.Pow(2, s)
	z.eta = (1 - math.Pow(2/float64(n), 1-s)) / (1 - z.half/z.zeta)
	return z
}

// Next returns the next Zipf-distributed value in [0, n); rank 0 is hottest.
// Uses Gray et al.'s rejection-free approximation (the one YCSB uses).
func (z *Zipf) Next() int64 {
	u := z.r.Float64()
	uz := u * z.zeta
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, 1/(1-z.s)))
	if v < 0 {
		v = 0
	}
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
