package pagecodec

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"purity/internal/tuple"
)

// fuzzWholeRows caps the pages FuzzOpen decodes whole: a header may declare
// billions of zero-bit rows in a few bytes, and All allocates a fact per
// row. A larger page has its first row checked.
const fuzzWholeRows = 4096

// FuzzOpen feeds Open pages whose trailing CRC is made to match, so the
// fuzzer gets past the checksum to the header, dictionary and row decoders.
// Nothing may panic, and an opened page must agree with itself: Row(i)
// equals All()[i], and Keys holds every row's key columns.
func FuzzOpen(f *testing.F) {
	for _, blob := range []bool{false, true} {
		for _, n := range []int{0, 1, 7, 200} {
			s, facts := makeFacts(n, blob)
			raw, err := Encode(s, facts)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	schemas := []tuple.Schema{{Cols: 4, KeyCols: 2}, {Cols: 4, KeyCols: 2, HasBlob: true}}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) >= 4 {
			body := raw[:len(raw)-4]
			binary.LittleEndian.PutUint32(raw[len(body):], crc32.ChecksumIEEE(body))
		}
		for _, s := range schemas {
			p, err := Open(s, raw)
			if err != nil {
				continue
			}
			if err := p.Verify(); err != nil {
				t.Fatalf("opened page fails Verify: %v", err)
			}
			n := p.RowCount()
			rows := []int{0}
			var all []tuple.Fact
			if n <= fuzzWholeRows {
				all = p.All()
				keys := p.Keys()
				rows = rows[:0]
				for i := range all {
					rows = append(rows, i)
					if !reflect.DeepEqual(keys[i*s.KeyCols:(i+1)*s.KeyCols], all[i].Cols[:s.KeyCols]) {
						t.Fatalf("row %d: Keys %v, All %v", i, keys[i*s.KeyCols:(i+1)*s.KeyCols], all[i].Cols)
					}
				}
			}
			buf := make([]uint64, s.Cols)
			for _, i := range rows {
				if i >= n {
					continue
				}
				r := p.Row(i, buf)
				if all != nil && !reflect.DeepEqual(r, all[i]) {
					t.Fatalf("Row(%d) = %+v, All()[%d] = %+v", i, r, i, all[i])
				}
				p.FirstGE(r.Cols[:s.KeyCols])
			}
		}
	})
}
