package erasure

import (
	"bytes"
	"testing"
	"testing/quick"

	"purity/internal/sim"
)

func fillShards(t *testing.T, c *Coder, size int, seed uint64) [][]byte {
	t.Helper()
	r := sim.NewRand(seed)
	shards := make([][]byte, c.TotalShards())
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < c.k {
			r.Bytes(shards[i])
		}
	}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	return shards
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		if s != nil {
			out[i] = bytes.Clone(s)
		}
	}
	return out
}

func TestNewInvalidGeometry(t *testing.T) {
	for _, g := range []struct{ k, m int }{{0, 2}, {7, 0}, {-1, 2}, {200, 100}} {
		if _, err := New(g.k, g.m); err == nil {
			t.Errorf("New(%d, %d) succeeded, want error", g.k, g.m)
		}
	}
}

func TestEncodeVerify(t *testing.T) {
	c, err := New(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := fillShards(t, c, 1024, 1)
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v; want true, nil", ok, err)
	}
	// Corrupt one byte: verification must fail.
	shards[3][100] ^= 0xff
	ok, err = c.Verify(shards)
	if err != nil || ok {
		t.Fatalf("Verify after corruption = %v, %v; want false, nil", ok, err)
	}
}

func TestReconstructAllPairs(t *testing.T) {
	// The paper's claim: any two drive losses are survivable with 7+2.
	c, err := New(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := fillShards(t, c, 512, 2)
	n := c.TotalShards()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			shards := cloneShards(orig)
			shards[i] = nil
			shards[j] = nil
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("lose (%d,%d): %v", i, j, err)
			}
			for s := range shards {
				if !bytes.Equal(shards[s], orig[s]) {
					t.Fatalf("lose (%d,%d): shard %d mismatch", i, j, s)
				}
			}
		}
	}
}

func TestReconstructTooManyMissing(t *testing.T) {
	c, _ := New(7, 2)
	shards := fillShards(t, c, 256, 3)
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := c.Reconstruct(shards); err != ErrTooFewShards {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestReconstructDataOnly(t *testing.T) {
	c, _ := New(7, 2)
	orig := fillShards(t, c, 256, 4)
	shards := cloneShards(orig)
	shards[2] = nil
	shards[8] = nil // parity: must stay nil
	before := cloneShards(shards)
	out := make([]byte, 256)
	if err := c.ReconstructShard(shards, 2, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, orig[2]) {
		t.Fatal("data shard 2 not reconstructed")
	}
	if shards[2] != nil || shards[8] != nil {
		t.Fatal("ReconstructShard filled in an absent shard")
	}
	for i := range shards {
		if !bytes.Equal(shards[i], before[i]) {
			t.Fatalf("ReconstructShard modified shard %d", i)
		}
	}
}

func TestReconstructNoop(t *testing.T) {
	c, _ := New(3, 2)
	orig := fillShards(t, c, 64, 5)
	shards := cloneShards(orig)
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("no-op reconstruct changed shard %d", i)
		}
	}
}

func TestShardSizeMismatch(t *testing.T) {
	c, _ := New(3, 2)
	shards := fillShards(t, c, 64, 6)
	shards[1] = shards[1][:32]
	if err := c.Encode(shards); err != ErrShardSize {
		t.Fatalf("err = %v, want ErrShardSize", err)
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	c, _ := New(7, 2)
	for _, n := range []int{1, 7, 100, 1024, 7777} {
		data := make([]byte, n)
		sim.NewRand(uint64(n)).Bytes(data)
		shards := c.Split(data)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		got := c.Join(shards, n)
		if !bytes.Equal(got, data) {
			t.Fatalf("split/join n=%d mismatch", n)
		}
	}
}

func TestReconstructProperty(t *testing.T) {
	// Property: for any geometry and any ≤m losses, reconstruction restores
	// the original shards exactly.
	geometries := []struct{ k, m int }{{3, 2}, {7, 2}, {5, 3}, {10, 2}, {2, 2}}
	f := func(seed uint64, pick uint16) bool {
		g := geometries[int(pick)%len(geometries)]
		c, err := New(g.k, g.m)
		if err != nil {
			return false
		}
		r := sim.NewRand(seed)
		shards := make([][]byte, c.TotalShards())
		for i := range shards {
			shards[i] = make([]byte, 128)
			if i < g.k {
				r.Bytes(shards[i])
			}
		}
		if c.Encode(shards) != nil {
			return false
		}
		orig := cloneShards(shards)
		// Drop up to m random shards.
		drops := 1 + int(seed%uint64(g.m))
		perm := r.Perm(c.TotalShards())
		for _, idx := range perm[:drops] {
			shards[idx] = nil
		}
		if c.Reconstruct(shards) != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearity(t *testing.T) {
	// RS over GF(2^8) is linear: parity(a XOR b) == parity(a) XOR parity(b).
	// Purity relies on this when patching partial stripes.
	c, _ := New(5, 2)
	a := fillShards(t, c, 128, 7)
	b := fillShards(t, c, 128, 8)
	x := make([][]byte, c.TotalShards())
	for i := range x {
		x[i] = make([]byte, 128)
		for j := range x[i] {
			x[i][j] = a[i][j] ^ b[i][j]
		}
	}
	ok, err := c.Verify(x)
	if err != nil || !ok {
		t.Fatalf("linearity violated: Verify = %v, %v", ok, err)
	}
}

func BenchmarkEncode7x2(b *testing.B) {
	c, _ := New(7, 2)
	shards := make([][]byte, 9)
	r := sim.NewRand(1)
	for i := range shards {
		shards[i] = make([]byte, 128<<10)
		if i < 7 {
			r.Bytes(shards[i])
		}
	}
	b.SetBytes(7 * 128 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructOne7x2(b *testing.B) {
	c, _ := New(7, 2)
	shards := make([][]byte, 9)
	r := sim.NewRand(1)
	for i := range shards {
		shards[i] = make([]byte, 128<<10)
		if i < 7 {
			r.Bytes(shards[i])
		}
	}
	_ = c.Encode(shards)
	saved := shards[3]
	shards[3] = nil
	out := make([]byte, 128<<10)
	b.SetBytes(128 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReconstructShard(shards, 3, out); err != nil {
			b.Fatal(err)
		}
	}
	if !bytes.Equal(out, saved) {
		b.Fatal("bad reconstruction")
	}
}
