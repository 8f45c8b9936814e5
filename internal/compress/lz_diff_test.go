package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"purity/internal/sim"
)

// sameAsReference fails unless Decompress and refDecompress agree on frame:
// the same error (or none), the same consumed count and the same bytes,
// decoding into nil and after a prefix already in dst.
func sameAsReference(t *testing.T, name string, frame []byte) {
	t.Helper()
	for _, prefix := range [][]byte{nil, []byte("existing|")} {
		got, gn, gerr := Decompress(bytes.Clone(prefix), frame)
		want, wn, werr := refDecompress(bytes.Clone(prefix), frame)
		if gerr != werr || gn != wn || !bytes.Equal(got, want) {
			t.Fatalf("%s (prefix %q): Decompress = %d bytes, consumed %d, %v; reference = %d bytes, consumed %d, %v; same bytes %v",
				name, prefix, len(got), gn, gerr, len(want), wn, werr, bytes.Equal(got, want))
		}
	}
}

// referenceInputs are the blocks Compress must frame exactly as the
// reference does: both content classes at every cblock size the traffic
// uses, random bytes, zeros, and TestRoundTripFarOffsets' inputs past the
// 64 KiB window.
func referenceInputs() map[string][]byte {
	in := map[string][]byte{}
	for _, c := range contentClasses {
		for _, n := range []int{512, 4 << 10, 8 << 10, 32 << 10} {
			for id := uint64(1); id <= 3; id++ {
				in[fmt.Sprintf("%s/%d/id%d", c.name, n, id)] = renderClass(c.noiseWords, n, 1, id)
			}
		}
	}
	for _, n := range []int{0, 1, 7, 512, 32 << 10, 100 << 10} {
		random := make([]byte, n)
		sim.NewRand(uint64(n)).Bytes(random)
		in[fmt.Sprintf("random/%d", n)] = random
		in[fmt.Sprintf("zeros/%d", n)] = make([]byte, n)
	}
	chunk := make([]byte, 40<<10)
	sim.NewRand(3).Bytes(chunk)
	in["far/in-window"] = append(bytes.Clone(chunk), chunk...)
	far := make([]byte, 70<<10)
	sim.NewRand(4).Bytes(far)
	out := append(bytes.Clone(chunk), far...)
	in["far/out-of-window"] = append(out, chunk...)
	in["runs/abc"] = bytes.Repeat([]byte("abc"), 1000)
	in["runs/sql"] = bytes.Repeat([]byte("INSERT INTO t VALUES (42, 'customer', 'active'); "), 1400)
	return in
}

func TestCompressMatchesReference(t *testing.T) {
	for name, src := range referenceInputs() {
		got := Compress([]byte("keep"), src)
		want := refCompress([]byte("keep"), src)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: frame differs from the reference (%d vs %d bytes)", name, len(got), len(want))
		}
		sameAsReference(t, name, want[len("keep"):])
	}
}

// handFrame builds an LZ frame from its parts with the reference's token
// writer: lits literal bytes, then a match of matchLen at offset, then the
// stream end. origLen is what the header claims.
func handFrame(origLen int, lits []byte, offset, matchLen int) []byte {
	f := []byte{methodLZ}
	f = binary.AppendUvarint(f, uint64(origLen))
	f = refAppendSequence(f, lits, offset, matchLen)
	return refAppendToken(f, 0, 0)
}

// TestDecodeMatchesReferenceTable decodes hand-built frames whose match
// offsets run 1 to 20 (every one under 20 overlapping its own output for the
// longer lengths) and whose literal and match lengths cross the nibble-15
// and the 255-extension boundaries. Both decoders must agree on each, on
// its truncations, and on it with the header's length off by one.
func TestDecodeMatchesReferenceTable(t *testing.T) {
	matchLens := []int{4, 5, 17, 18, 19, 20, 40, 272, 273, 274, 528, 529, 1000}
	litLens := []int{0, 1, 14, 15, 16, 20, 269, 270, 271, 600}
	lit := make([]byte, 600)
	sim.NewRand(9).Bytes(lit)
	for offset := 1; offset <= 20; offset++ {
		for _, ll := range litLens {
			for _, ml := range matchLens {
				lits := lit[:ll]
				want := len(lits) + ml
				frame := handFrame(want, lits, offset, ml)
				name := fmt.Sprintf("offset %d, %d literals, match %d", offset, ll, ml)
				sameAsReference(t, name, frame)
				if offset <= ll {
					// In the window: it must decode, and to the run.
					out, n, err := Decompress(nil, frame)
					if err != nil || n != len(frame) || len(out) != want {
						t.Fatalf("%s: %d bytes, consumed %d of %d, %v", name, len(out), n, len(frame), err)
					}
					for k := ll; k < want; k++ {
						if out[k] != out[k-offset] {
							t.Fatalf("%s: byte %d is not the byte %d before it", name, k, offset)
						}
					}
				}
				// Truncations through the header, the token and its
				// extensions, and the offset and end token at the tail.
				for cut := 0; cut < len(frame); cut++ {
					if cut == 12 && len(frame)-12 > cut {
						cut = len(frame) - 12
					}
					sameAsReference(t, name+fmt.Sprintf(", cut at %d", cut), frame[:cut])
				}
				for _, claim := range []int{want - 1, want + 1} {
					sameAsReference(t, name+fmt.Sprintf(", header %d", claim), handFrame(claim, lits, offset, ml))
				}
			}
		}
	}
}

// TestDecodeErrorsMatchReference pins the errors both decoders give for
// frames that are wrong in each way the format can be: a header past the
// size cap, an unknown method, a bad varint, a truncated raw payload, a
// zero offset, an extension that never ends.
func TestDecodeErrorsMatchReference(t *testing.T) {
	tooLarge := binary.AppendUvarint([]byte{methodLZ}, maxBlock+1)
	cases := map[string][]byte{
		"too large":         append(tooLarge, 0x00),
		"unknown method":    {0x02, 4, 0x40, 1, 2, 3, 4},
		"bad varint":        {methodLZ, 0x80, 0x80},
		"raw short":         {methodRaw, 10, 1, 2, 3},
		"zero offset":       {methodLZ, 10, 0x01, 0x00, 0x00},
		"offset behind":     {methodLZ, 10, 0x11, 'a', 0x02, 0x00},
		"endless extension": append([]byte{methodLZ, 200, 0xf0}, bytes.Repeat([]byte{0xff}, 64)...),
		"empty":             {},
		"one byte":          {methodLZ},
	}
	for name, frame := range cases {
		sameAsReference(t, name, frame)
		if _, _, err := Decompress(nil, frame); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if _, _, err := Decompress(nil, cases["too large"]); err != ErrTooLarge {
		t.Fatalf("too large: %v, want ErrTooLarge", err)
	}
}

// FuzzDecompress feeds both decoders the same bytes. They must agree on
// error or none, on the output and on the bytes consumed, and neither may
// panic. A block that decodes is then framed again: Compress must emit the
// reference's frame, and the reference decoder must return the block from
// it. The seeds include the frames FuzzUnpack (internal/cblock) starts from,
// without their CRC: 1, 3 and 64 sectors, half random and half zeros,
// compressed and raw.
func FuzzDecompress(f *testing.F) {
	for _, n := range []int{1, 3, 64} {
		data := make([]byte, n*512)
		sim.NewRand(uint64(n)).Bytes(data[:len(data)/2])
		f.Add(Compress(nil, data))
		f.Add(AppendRaw(nil, data))
	}
	for _, c := range contentClasses {
		f.Add(Compress(nil, renderClass(c.noiseWords, 4<<10, 1, 1)))
	}
	f.Add(Compress(nil, bytes.Repeat([]byte("abc"), 100)))
	f.Add(handFrame(40, []byte("xyz"), 3, 37))
	f.Add([]byte{})
	f.Add([]byte{methodLZ, 0, 0x00})
	f.Fuzz(func(t *testing.T, frame []byte) {
		got, gn, gerr := Decompress(nil, frame)
		want, wn, werr := refDecompress(nil, frame)
		if gerr != werr || gn != wn || !bytes.Equal(got, want) {
			t.Fatalf("Decompress = %d bytes, consumed %d, %v; reference = %d bytes, consumed %d, %v; same bytes %v",
				len(got), gn, gerr, len(want), wn, werr, bytes.Equal(got, want))
		}
		if gerr != nil {
			return
		}
		again := Compress(nil, got)
		if ref := refCompress(nil, got); !bytes.Equal(again, ref) {
			t.Fatalf("Compress of the decoded block differs from the reference (%d vs %d bytes)", len(again), len(ref))
		}
		back, n, err := refDecompress(nil, again)
		if err != nil || n != len(again) || !bytes.Equal(back, got) {
			t.Fatalf("reference decode of the re-framed block: %d bytes, consumed %d of %d, %v", len(back), n, len(again), err)
		}
	})
}
