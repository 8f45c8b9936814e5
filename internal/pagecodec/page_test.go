package pagecodec

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"

	"purity/internal/sim"
	"purity/internal/tuple"
)

func TestBitWriterReader(t *testing.T) {
	var w bitWriter
	vals := []struct {
		v     uint64
		width uint
	}{
		{0x5, 3}, {0x1, 1}, {0xdeadbeef, 32}, {0, 0}, {0x3ff, 10},
		{^uint64(0), 64}, {1, 64}, {0x7, 5},
	}
	for _, x := range vals {
		w.write(x.v, x.width)
	}
	buf := w.finish()
	var off uint64
	for i, x := range vals {
		mask := ^uint64(0)
		if x.width < 64 {
			mask = (1 << x.width) - 1
		}
		got := readBits(buf, off, x.width)
		if got != x.v&mask {
			t.Fatalf("field %d: got %#x, want %#x", i, got, x.v&mask)
		}
		off += uint64(x.width)
	}
}

func TestBitsRoundTripProperty(t *testing.T) {
	f := func(vals []uint32, widthSeed uint8) bool {
		var w bitWriter
		widths := make([]uint, len(vals))
		for i := range vals {
			widths[i] = uint((int(widthSeed)+i)%32) + 1
			w.write(uint64(vals[i]), widths[i])
		}
		buf := w.finish()
		var off uint64
		for i := range vals {
			mask := uint64(1)<<widths[i] - 1
			if readBits(buf, off, widths[i]) != uint64(vals[i])&mask {
				return false
			}
			off += uint64(widths[i])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]uint{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 255: 8, 256: 8, 257: 9}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDictConstantColumn(t *testing.T) {
	// A constant field must cost zero bits per row (§4.9: "extra fields
	// take up no space").
	d := buildDict([]uint64{42, 42, 42, 42})
	if d.rowBits() != 0 {
		t.Fatalf("constant column costs %d bits/row, want 0", d.rowBits())
	}
	x, o, ok := d.encode(42)
	if !ok || d.decode(x, o) != 42 {
		t.Fatal("constant dict does not round trip")
	}
	if _, _, ok := d.encode(43); ok {
		t.Fatal("value absent from constant dict reported encodable")
	}
}

func TestDictDenseRange(t *testing.T) {
	// Dense values near a base: one base, small W.
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = 1_000_000 + uint64(i)
	}
	d := buildDict(vals)
	if len(d.bases) > 2 {
		t.Fatalf("dense range used %d bases, want ≤ 2", len(d.bases))
	}
	if d.rowBits() > 8 {
		t.Fatalf("dense range costs %d bits/row, want ≤ 8", d.rowBits())
	}
}

func TestDictRoundTripAllValues(t *testing.T) {
	r := sim.NewRand(5)
	vals := make([]uint64, 500)
	for i := range vals {
		switch i % 3 {
		case 0:
			vals[i] = r.Uint64()
		case 1:
			vals[i] = uint64(i) * 1000
		default:
			vals[i] = 7
		}
	}
	d := buildDict(vals)
	for _, v := range vals {
		x, o, ok := d.encode(v)
		if !ok {
			t.Fatalf("value %d not encodable by its own dict", v)
		}
		if d.decode(x, o) != v {
			t.Fatalf("value %d round trips to %d", v, d.decode(x, o))
		}
	}
}

func makeFacts(n int, blob bool) (tuple.Schema, []tuple.Fact) {
	s := tuple.Schema{Cols: 4, KeyCols: 2, HasBlob: blob}
	facts := make([]tuple.Fact, n)
	for i := range facts {
		facts[i] = tuple.Fact{
			Seq: tuple.Seq(1000 + i),
			// col0: small key; col1: secondary key; col2: constant; col3: wide.
			Cols: []uint64{uint64(i / 4), uint64(i % 4), 77, uint64(i) * 1_000_003},
		}
		if blob {
			facts[i].Blob = bytes.Repeat([]byte{byte(i)}, i%5)
		}
	}
	return s, facts
}

func TestPageRoundTrip(t *testing.T) {
	for _, blob := range []bool{false, true} {
		s, facts := makeFacts(200, blob)
		raw, err := Encode(s, facts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Open(s, raw)
		if err != nil {
			t.Fatal(err)
		}
		if p.RowCount() != len(facts) {
			t.Fatalf("RowCount = %d", p.RowCount())
		}
		got := p.All()
		for i := range facts {
			if got[i].Seq != facts[i].Seq {
				t.Fatalf("row %d seq %d != %d", i, got[i].Seq, facts[i].Seq)
			}
			for c := range facts[i].Cols {
				if got[i].Cols[c] != facts[i].Cols[c] {
					t.Fatalf("row %d col %d: %d != %d", i, c, got[i].Cols[c], facts[i].Cols[c])
				}
			}
			if blob && !bytes.Equal(got[i].Blob, facts[i].Blob) {
				t.Fatalf("row %d blob mismatch", i)
			}
		}
		// Individual Fact(i) agrees with All().
		f7 := p.Fact(7)
		if f7.Seq != facts[7].Seq || (blob && !bytes.Equal(f7.Blob, facts[7].Blob)) {
			t.Fatal("Fact(7) disagrees")
		}
	}
}

func TestPageEmpty(t *testing.T) {
	s := tuple.Schema{Cols: 2, KeyCols: 1}
	raw, err := Encode(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Open(s, raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.RowCount() != 0 || len(p.All()) != 0 {
		t.Fatal("empty page has rows")
	}
}

func TestPageCompressionEffective(t *testing.T) {
	// 1000 rows with mostly-constant and dense columns must encode far
	// below the naive 8 bytes/column.
	s := tuple.Schema{Cols: 4, KeyCols: 1}
	facts := make([]tuple.Fact, 1000)
	for i := range facts {
		facts[i] = tuple.Fact{
			Seq:  tuple.Seq(5_000_000 + i), // dense: ~10 bits
			Cols: []uint64{uint64(i), 42, 42, uint64(i % 2)},
		}
	}
	raw, err := Encode(s, facts)
	if err != nil {
		t.Fatal(err)
	}
	naive := 1000 * 5 * 8
	if len(raw) > naive/5 {
		t.Fatalf("page is %d bytes; naive is %d; want at least 5x compression", len(raw), naive)
	}
}

func TestPageChecksum(t *testing.T) {
	s, facts := makeFacts(50, false)
	raw, _ := Encode(s, facts)
	for _, i := range []int{0, 5, len(raw) / 2, len(raw) - 1} {
		bad := bytes.Clone(raw)
		bad[i] ^= 0x01
		if _, err := Open(s, bad); err == nil {
			t.Fatalf("corrupt byte %d accepted", i)
		}
	}
	if _, err := Open(s, raw[:8]); err == nil {
		t.Fatal("truncated page accepted")
	}
	if _, err := Open(s, nil); err == nil {
		t.Fatal("nil page accepted")
	}
}

func TestPageSchemaMismatch(t *testing.T) {
	s, facts := makeFacts(10, false)
	raw, _ := Encode(s, facts)
	other := tuple.Schema{Cols: 3, KeyCols: 1}
	if _, err := Open(other, raw); err != ErrSchema {
		t.Fatalf("schema mismatch: %v", err)
	}
}

func TestFirstGE(t *testing.T) {
	s := tuple.Schema{Cols: 2, KeyCols: 2}
	var facts []tuple.Fact
	for i := 0; i < 50; i++ {
		facts = append(facts, tuple.Fact{Seq: tuple.Seq(i), Cols: []uint64{uint64(i * 2), uint64(i % 3)}})
	}
	sort.Slice(facts, func(i, j int) bool { return tuple.Less(facts[i], facts[j], s.KeyCols) })
	raw, _ := Encode(s, facts)
	p, _ := Open(s, raw)

	idx := p.FirstGE([]uint64{10, 0})
	var key []uint64
	key = p.Key(key, idx)
	if key[0] != 10 {
		t.Fatalf("FirstGE(10,0) landed on key %v", key)
	}
	// Key between rows: lands on next.
	idx = p.FirstGE([]uint64{11, 0})
	key = p.Key(key[:0], idx)
	if key[0] != 12 {
		t.Fatalf("FirstGE(11,0) landed on key %v", key)
	}
	// Beyond all keys.
	if got := p.FirstGE([]uint64{1 << 40, 0}); got != p.RowCount() {
		t.Fatalf("FirstGE(max) = %d, want %d", got, p.RowCount())
	}
	// Before all keys.
	if got := p.FirstGE([]uint64{0, 0}); got != 0 {
		t.Fatalf("FirstGE(0) = %d, want 0", got)
	}
}

func TestEncodeWrongColCount(t *testing.T) {
	s := tuple.Schema{Cols: 3, KeyCols: 1}
	_, err := Encode(s, []tuple.Fact{{Seq: 1, Cols: []uint64{1, 2}}})
	if err == nil {
		t.Fatal("wrong column count accepted")
	}
}

func BenchmarkEncode1000Rows(b *testing.B) {
	s, facts := makeFacts(1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(s, facts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeAll1000Rows(b *testing.B) {
	s, facts := makeFacts(1000, false)
	raw, _ := Encode(s, facts)
	p, _ := Open(s, raw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.All()
	}
}
