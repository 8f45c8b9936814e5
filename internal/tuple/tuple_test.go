package tuple

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func TestSchemaValidate(t *testing.T) {
	good := []Schema{{Cols: 1, KeyCols: 1}, {Cols: 5, KeyCols: 2, HasBlob: true}}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
	bad := []Schema{{}, {Cols: 2, KeyCols: 0}, {Cols: 2, KeyCols: 3}, {Cols: -1, KeyCols: 1}}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}

func TestCompareKeys(t *testing.T) {
	cases := []struct {
		a, b []uint64
		k    int
		want int
	}{
		{[]uint64{1, 2}, []uint64{1, 2}, 2, 0},
		{[]uint64{1, 2}, []uint64{1, 3}, 2, -1},
		{[]uint64{2, 0}, []uint64{1, 9}, 2, 1},
		{[]uint64{1, 2}, []uint64{1, 9}, 1, 0}, // only first col compared
	}
	for i, c := range cases {
		if got := CompareKeys(c.a, c.b, c.k); got != c.want {
			t.Errorf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}

func TestLessOrdersNewestFirst(t *testing.T) {
	a := Fact{Seq: 5, Cols: []uint64{1}}
	b := Fact{Seq: 9, Cols: []uint64{1}}
	if Less(a, b, 1) {
		t.Fatal("older fact sorted before newer for equal keys")
	}
	if !Less(b, a, 1) {
		t.Fatal("newer fact not sorted first")
	}
	c := Fact{Seq: 1, Cols: []uint64{0}}
	if !Less(c, a, 1) {
		t.Fatal("smaller key not first")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := Schema{Cols: 3, KeyCols: 2, HasBlob: true}
	f := Fact{Seq: 42, Cols: []uint64{7, 0, 1<<63 + 5}, Blob: []byte("volume-name")}
	enc := Append(nil, s, f)
	got, n, err := Decode(enc, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if got.Seq != f.Seq || !bytes.Equal(got.Blob, f.Blob) {
		t.Fatalf("got %+v", got)
	}
	for i := range f.Cols {
		if got.Cols[i] != f.Cols[i] {
			t.Fatalf("col %d: %d != %d", i, got.Cols[i], f.Cols[i])
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	s := Schema{Cols: 2, KeyCols: 1, HasBlob: true}
	f := Fact{Seq: 1, Cols: []uint64{1000000, 2}, Blob: []byte("hello")}
	enc := Append(nil, s, f)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := Decode(enc[:cut], s); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	s := Schema{Cols: 2, KeyCols: 1}
	var facts []Fact
	for i := 0; i < 100; i++ {
		facts = append(facts, Fact{Seq: Seq(i), Cols: []uint64{uint64(i * 3), uint64(i)}})
	}
	enc := AppendBatch(nil, s, facts)
	got, n, err := DecodeBatch(enc, s)
	if err != nil || n != len(enc) {
		t.Fatalf("DecodeBatch: %v, consumed %d/%d", err, n, len(enc))
	}
	if len(got) != len(facts) {
		t.Fatalf("got %d facts", len(got))
	}
	for i := range got {
		if got[i].Seq != facts[i].Seq || got[i].Cols[0] != facts[i].Cols[0] {
			t.Fatalf("fact %d mismatch", i)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	s := Schema{Cols: 1, KeyCols: 1}
	enc := AppendBatch(nil, s, nil)
	got, _, err := DecodeBatch(enc, s)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %d facts", err, len(got))
	}
}

func TestEncodePropertyRoundTrip(t *testing.T) {
	s := Schema{Cols: 4, KeyCols: 2, HasBlob: true}
	f := func(seq uint64, c0, c1, c2, c3 uint64, blob []byte) bool {
		in := Fact{Seq: Seq(seq), Cols: []uint64{c0, c1, c2, c3}, Blob: blob}
		enc := Append(nil, s, in)
		out, n, err := Decode(enc, s)
		if err != nil || n != len(enc) || out.Seq != in.Seq {
			return false
		}
		for i := range in.Cols {
			if out.Cols[i] != in.Cols[i] {
				return false
			}
		}
		return bytes.Equal(out.Blob, in.Blob) || (len(in.Blob) == 0 && len(out.Blob) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := Fact{Seq: 1, Cols: []uint64{1, 2}, Blob: []byte("abc")}
	c := f.Clone()
	c.Cols[0] = 99
	c.Blob[0] = 'X'
	if f.Cols[0] != 1 || f.Blob[0] != 'a' {
		t.Fatal("Clone shares memory")
	}
}

func TestSeqSource(t *testing.T) {
	s := NewSeqSource(100)
	if s.Current() != 100 {
		t.Fatalf("Current = %d", s.Current())
	}
	if s.Next() != 101 || s.Next() != 102 {
		t.Fatal("Next not sequential")
	}
	if s.Current() != 102 {
		t.Fatalf("Current after two Next = %d, want 102", s.Current())
	}
	s.AdvanceTo(200)
	if s.Next() != 201 {
		t.Fatal("AdvanceTo did not take effect")
	}
	s.AdvanceTo(50) // backwards: no-op
	if s.Current() != 201 {
		t.Fatal("AdvanceTo moved backwards")
	}
}

func TestSeqSourceConcurrent(t *testing.T) {
	// Sequence numbers must never repeat under concurrency.
	s := NewSeqSource(0)
	const goroutines, per = 8, 1000
	results := make([][]Seq, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Seq, per)
			for i := range out {
				out[i] = s.Next()
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[Seq]bool, goroutines*per)
	for _, out := range results {
		for _, v := range out {
			if seen[v] {
				t.Fatalf("sequence number %d issued twice", v)
			}
			seen[v] = true
		}
	}
	if s.Current() != goroutines*per {
		t.Fatalf("Current = %d, want %d", s.Current(), goroutines*per)
	}
}
