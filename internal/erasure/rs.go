package erasure

import (
	"errors"
	"fmt"
)

// Coder encodes K data shards into M parity shards and reconstructs missing
// shards from any K survivors. A Coder is immutable after construction and
// safe for concurrent use.
type Coder struct {
	k, m int
	// enc is the (k+m)×k systematic encoding matrix: the top k×k block is
	// the identity (data shards pass through), the bottom m×k block
	// generates parity.
	enc matrix
}

// Common errors returned by Coder methods.
var (
	ErrTooFewShards  = errors.New("erasure: not enough shards to reconstruct")
	ErrShardSize     = errors.New("erasure: shards have mismatched sizes")
	ErrInvalidShards = errors.New("erasure: invalid shard slice")
)

// New returns a Coder for k data and m parity shards. The paper's production
// geometry is k=7, m=2 (§4.2); tests also use smaller geometries.
func New(k, m int) (*Coder, error) {
	if k <= 0 || m <= 0 || k+m > 256 {
		return nil, fmt.Errorf("erasure: invalid geometry %d+%d", k, m)
	}
	// Build a systematic matrix from a Vandermonde matrix: multiply by the
	// inverse of its top k×k block so the top becomes the identity while
	// preserving the any-k-rows-invertible property.
	v := vandermonde(k+m, k)
	top := v.subRows(intRange(0, k))
	topInv, err := top.invert()
	if err != nil {
		// Vandermonde top blocks are always invertible; reaching this
		// indicates a bug in the field arithmetic.
		panic(err)
	}
	return &Coder{k: k, m: m, enc: v.mul(topInv)}, nil
}

// TotalShards returns k+m.
func (c *Coder) TotalShards() int { return c.k + c.m }

// Encode computes the m parity shards from the k data shards. shards must
// hold k+m equal-length slices; the first k are read, the last m are
// overwritten.
func (c *Coder) Encode(shards [][]byte) error {
	if err := c.checkShards(shards, false); err != nil {
		return err
	}
	c.encodeRange(shards, 0, len(shards[0]))
	return nil
}

// EncodeRange computes the parity bytes for columns [lo, hi) only. Parity
// is byte-wise, so any column partition of a stripe can be encoded
// independently — the segio flush fans ranges out across a worker pool and
// the concatenation is byte-identical to a single Encode call.
func (c *Coder) EncodeRange(shards [][]byte, lo, hi int) error {
	if err := c.checkShards(shards, false); err != nil {
		return err
	}
	if lo < 0 || hi > len(shards[0]) || lo > hi {
		return ErrInvalidShards
	}
	c.encodeRange(shards, lo, hi)
	return nil
}

func (c *Coder) encodeRange(shards [][]byte, lo, hi int) {
	if lo == hi {
		return
	}
	var backing [16][]byte // keeps the column list off the heap up to K = 16
	data := backing[:0]
	for _, s := range shards[:c.k] {
		data = append(data, s[lo:hi])
	}
	for p := c.k; p < c.k+c.m; p++ {
		dot(shards[p][lo:hi], c.enc.row(p), data)
	}
}

// Verify reports whether the parity shards are consistent with the data
// shards.
func (c *Coder) Verify(shards [][]byte) (bool, error) {
	if err := c.checkShards(shards, false); err != nil {
		return false, err
	}
	buf := make([]byte, len(shards[0]))
	for p := 0; p < c.m; p++ {
		row := c.enc.row(c.k + p)
		mulSet(buf, shards[0], row[0])
		for d := 1; d < c.k; d++ {
			mulAdd(buf, shards[d], row[d])
		}
		for i, b := range buf {
			if b != shards[c.k+p][i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// Reconstruct rebuilds all missing shards in place. A shard is missing when
// its slice is nil; present shards must share one length. Reconstruction
// needs at least k present shards.
func (c *Coder) Reconstruct(shards [][]byte) error {
	if err := c.checkShards(shards, true); err != nil {
		return err
	}
	var missing []int
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	donors, rows, err := c.decodeRows(shards)
	if err != nil {
		return err
	}
	size := shardSize(shards)
	for _, idx := range missing {
		out := make([]byte, size)
		dot(out, rows.row(idx), donors)
		shards[idx] = out
	}
	return nil
}

// ReconstructShard computes shard idx alone into out, which must have the
// shards' length, from the first k present (non-nil) shards. It is what a
// read that lands on a busy or failed drive needs (§4.4): the wanted write
// unit in one pass over k donors, whichever other shards are absent. shards
// is not modified, idx may name a data or a parity shard, and nothing the
// size of a shard is allocated.
func (c *Coder) ReconstructShard(shards [][]byte, idx int, out []byte) error {
	if err := c.checkShards(shards, true); err != nil {
		return err
	}
	if idx < 0 || idx >= c.k+c.m {
		return ErrInvalidShards
	}
	if len(out) != shardSize(shards) {
		return ErrShardSize
	}
	donors, rows, err := c.decodeRows(shards)
	if err != nil {
		return err
	}
	dot(out, rows.row(idx), donors)
	return nil
}

// decodeRows picks the first k present shards as donors (any k survivors
// suffice) and returns the (k+m)×k matrix whose row i gives shard i as a
// combination of them. Inverting the donors' rows of the encoding matrix
// maps donors to data shards; composing the encoding matrix with that once
// makes a parity shard one pass over the donors too, instead of a rebuild
// of the data shards it is made of followed by a re-encode.
func (c *Coder) decodeRows(shards [][]byte) (donors [][]byte, rows matrix, err error) {
	present := make([]int, 0, c.k)
	donors = make([][]byte, 0, c.k)
	for i, s := range shards {
		if s != nil && len(present) < c.k {
			present = append(present, i)
			donors = append(donors, s)
		}
	}
	if len(present) < c.k {
		return nil, matrix{}, ErrTooFewShards
	}
	inv, err := c.enc.subRows(present).invert()
	if err != nil {
		return nil, matrix{}, err
	}
	return donors, c.enc.mul(inv), nil
}

// Split slices data into k data shards plus m empty parity shards, padding
// the tail shard with zeros. Join reverses it.
func (c *Coder) Split(data []byte) [][]byte {
	per := (len(data) + c.k - 1) / c.k
	if per == 0 {
		per = 1
	}
	shards := make([][]byte, c.k+c.m)
	for i := 0; i < c.k; i++ {
		shards[i] = make([]byte, per)
		lo := i * per
		if lo < len(data) {
			copy(shards[i], data[lo:])
		}
	}
	for i := c.k; i < c.k+c.m; i++ {
		shards[i] = make([]byte, per)
	}
	return shards
}

// Join concatenates the data shards and returns the first n bytes.
func (c *Coder) Join(shards [][]byte, n int) []byte {
	out := make([]byte, 0, n)
	for i := 0; i < c.k && len(out) < n; i++ {
		out = append(out, shards[i]...)
	}
	return out[:n]
}

func (c *Coder) checkShards(shards [][]byte, allowNil bool) error {
	if len(shards) != c.k+c.m {
		return ErrInvalidShards
	}
	size := -1
	for _, s := range shards {
		if s == nil {
			if !allowNil {
				return ErrInvalidShards
			}
			continue
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSize
		}
	}
	if size <= 0 {
		return ErrInvalidShards
	}
	return nil
}

func shardSize(shards [][]byte) int {
	for _, s := range shards {
		if s != nil {
			return len(s)
		}
	}
	return 0
}

func intRange(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
