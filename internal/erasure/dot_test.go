package erasure

import (
	"bytes"
	"sync"
	"testing"

	"purity/internal/sim"
)

// TestDotMatchesScalar holds the word-wide kernel to the field's scalar
// definition, out[i] = Σ_j gfMul(coef[j], srcs[j][i]), byte for byte: every
// value of one coefficient (every 17th at the one long length, which is
// there for the word loop's many iterations), source counts on both sides
// of what the stack-resident plane lists hold, lengths around the 32-byte
// step and its byte-table tail, and slices that start at every offset
// within a word.
func TestDotMatchesScalar(t *testing.T) {
	r := sim.NewRand(20)
	for _, k := range []int{1, 3, 7, 16, 17, 20} {
		for _, n := range []int{0, 1, 7, 8, 31, 32, 33, 4096 + 5} {
			srcs := make([][]byte, k)
			coef := make([]byte, k)
			for j := range srcs {
				// Source j starts j+1 bytes into its allocation and is
				// longer than out: dot may read only the first n bytes.
				buf := make([]byte, n+16)
				r.Bytes(buf)
				srcs[j] = buf[(j+1)%8:]
				coef[j] = byte(r.Intn(256))
			}
			step := 1
			if n > 64 {
				step = 17 // 0x00, 0x11, …, 0xff
			}
			for c := 0; c < 256; c += step {
				swept := c % k
				coef[swept] = byte(c)
				want := make([]byte, n)
				for i := range want {
					for j := range srcs {
						want[i] ^= gfMul(coef[j], srcs[j][i])
					}
				}
				guard := make([]byte, n+16)
				for i := range guard {
					guard[i] = 0xa5 // stale content dot must overwrite, and a fence it must not
				}
				off := 1 + c%7
				out := guard[off : off+n]
				dot(out, coef, srcs)
				if !bytes.Equal(out, want) {
					t.Fatalf("k=%d n=%d coef[%d]=%#x: dot differs from the scalar sum", k, n, swept, c)
				}
				for i, g := range guard {
					if (i < off || i >= off+n) && g != 0xa5 {
						t.Fatalf("k=%d n=%d: dot wrote outside out (guard byte %d)", k, n, i)
					}
				}
			}
		}
	}
}

// TestReconstructShardMatchesReconstruct: for every pair of lost shards and
// every wanted shard — lost or present, data or parity — the single-shard
// call produces what Reconstruct does, and leaves its input alone.
func TestReconstructShardMatchesReconstruct(t *testing.T) {
	for _, g := range []struct{ k, m int }{{3, 2}, {7, 2}, {17, 3}} {
		c, err := New(g.k, g.m)
		if err != nil {
			t.Fatal(err)
		}
		const size = 75 // two steps of the word loop and a tail
		orig := fillShards(t, c, size, uint64(g.k))
		n := c.TotalShards()
		out := make([]byte, size)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				lost := cloneShards(orig)
				lost[i], lost[j] = nil, nil
				full := cloneShards(lost)
				if err := c.Reconstruct(full); err != nil {
					t.Fatalf("%d+%d lose (%d,%d): %v", g.k, g.m, i, j, err)
				}
				for idx := 0; idx < n; idx++ {
					for b := range out {
						out[b] = 0xa5
					}
					if err := c.ReconstructShard(lost, idx, out); err != nil {
						t.Fatalf("%d+%d lose (%d,%d) want %d: %v", g.k, g.m, i, j, idx, err)
					}
					if !bytes.Equal(out, full[idx]) || !bytes.Equal(out, orig[idx]) {
						t.Fatalf("%d+%d lose (%d,%d): shard %d differs from Reconstruct's", g.k, g.m, i, j, idx)
					}
				}
				for s := range lost {
					want := orig[s]
					if s == i || s == j {
						want = nil
					}
					if (lost[s] == nil) != (want == nil) || !bytes.Equal(lost[s], want) {
						t.Fatalf("%d+%d lose (%d,%d): ReconstructShard modified shard %d", g.k, g.m, i, j, s)
					}
				}
			}
		}
	}
}

func TestReconstructShardRejects(t *testing.T) {
	c, _ := New(7, 2)
	orig := fillShards(t, c, 64, 9)
	shards := cloneShards(orig)
	shards[1] = nil
	for _, n := range []int{0, 63, 65} {
		if err := c.ReconstructShard(shards, 1, make([]byte, n)); err != ErrShardSize {
			t.Errorf("out of %d bytes for 64-byte shards: err = %v, want ErrShardSize", n, err)
		}
	}
	for _, idx := range []int{-1, 9} {
		if err := c.ReconstructShard(shards, idx, make([]byte, 64)); err != ErrInvalidShards {
			t.Errorf("idx %d: err = %v, want ErrInvalidShards", idx, err)
		}
	}
	shards[4], shards[8] = nil, nil // six present, seven needed
	out := bytes.Repeat([]byte{0xa5}, 64)
	if err := c.ReconstructShard(shards, 1, out); err != ErrTooFewShards {
		t.Fatalf("6 of 7 donors: err = %v, want ErrTooFewShards", err)
	}
	if !bytes.Equal(out, bytes.Repeat([]byte{0xa5}, 64)) {
		t.Fatal("a refused call wrote to out")
	}
}

// TestCoderConcurrentUse: one Coder serves every reader and the flush
// pool's encode tasks at once (run under -race by scripts/check.sh).
func TestCoderConcurrentUse(t *testing.T) {
	c, _ := New(7, 2)
	orig := fillShards(t, c, 1000, 10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]byte, 1000)
			for round := 0; round < 20; round++ {
				lost := cloneShards(orig)
				i, j := (g+round)%9, (g+3*round+1)%9
				lost[i], lost[j] = nil, nil
				if err := c.ReconstructShard(lost, i, out); err != nil || !bytes.Equal(out, orig[i]) {
					t.Errorf("goroutine %d: shard %d with (%d,%d) lost: err %v or wrong bytes", g, i, i, j, err)
					return
				}
				again := cloneShards(orig)
				again[7], again[8] = make([]byte, 1000), make([]byte, 1000)
				if err := c.Encode(again); err != nil || !bytes.Equal(again[7], orig[7]) || !bytes.Equal(again[8], orig[8]) {
					t.Errorf("goroutine %d: re-encode: err %v or wrong parity", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkDot7x128K is the read path's reconstruction pass at the shipped
// geometry: one 128 KiB write unit of a 7+2 stripe from seven donors that
// include both parity units, as they do when the read skips a busy drive
// and takes the first seven of the other eight (a row that needs only the
// first parity unit is all ones, which either kernel XORs at memory speed).
// MB/s counts source bytes, like BenchmarkMulAdd's; the table sub-benchmark
// is the loop the bit-plane kernel replaced.
func BenchmarkDot7x128K(b *testing.B) {
	const size = 128 << 10
	c, _ := New(7, 2)
	shards := make([][]byte, 9)
	r := sim.NewRand(1)
	for i := range shards {
		shards[i] = make([]byte, size)
		r.Bytes(shards[i])
	}
	shards[3], shards[6] = nil, nil
	donors, rows, err := c.decodeRows(shards)
	if err != nil {
		b.Fatal(err)
	}
	coef := rows.row(3)
	out := make([]byte, size)
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"bitplane", func() { dot(out, coef, donors) }},
		{"table", func() {
			mulSet(out, donors[0], coef[0])
			for j := 1; j < len(coef); j++ {
				mulAdd(out, donors[j], coef[j])
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(coef)) * size)
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}
