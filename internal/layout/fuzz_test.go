package layout

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"purity/internal/sim"
)

// FuzzParseAUTrailer feeds parseAUTrailer arbitrary pages, each as given and
// again with the CRC made to match where the page's own header puts it, so
// the fuzzer gets past the checksum. Nothing may panic, and a trailer it
// accepts describes itself: one CRC row per stripe and one CRC per AU in
// each, and marshalling it gives a page that parses back to the same
// trailer.
func FuzzParseAUTrailer(f *testing.F) {
	cfg := TestConfig()
	for _, stripes := range []int{0, 1, cfg.StripesPerAU} {
		t := AUTrailer{Segment: 7, Shard: 2, Stripes: stripes, SeqMin: 10, SeqMax: 99, AUs: segmentAUs(cfg, 6, 3)}
		for s := 0; s < stripes; s++ {
			row := make([]uint32, len(t.AUs))
			for i := range row {
				row[i] = uint32(s*100 + i)
			}
			t.WUCRCs = append(t.WUCRCs, row)
		}
		page, err := marshalAUTrailer(cfg, t)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page)
	}
	f.Add(make([]byte, 38))
	f.Fuzz(func(t *testing.T, page []byte) {
		fixed := bytes.Clone(page)
		if len(fixed) >= 34 {
			nAU := int(binary.LittleEndian.Uint16(fixed[32:]))
			stripes := int(binary.LittleEndian.Uint16(fixed[14:]))
			if pos := 34 + nAU*12 + stripes*nAU*4; pos+4 <= len(fixed) {
				binary.LittleEndian.PutUint32(fixed[pos:], crc32.ChecksumIEEE(fixed[:pos]))
			}
		}
		for _, in := range [][]byte{page, fixed} {
			tr, err := parseAUTrailer(cfg, in)
			if err != nil {
				continue
			}
			if len(tr.AUs) == 0 || len(tr.WUCRCs) != tr.Stripes {
				t.Fatalf("accepted trailer with %d AUs and %d CRC rows for %d stripes", len(tr.AUs), len(tr.WUCRCs), tr.Stripes)
			}
			for s, row := range tr.WUCRCs {
				if len(row) != len(tr.AUs) {
					t.Fatalf("stripe %d: %d CRCs for %d AUs", s, len(row), len(tr.AUs))
				}
			}
			c := cfg
			c.PageSize = len(in)
			again, err := marshalAUTrailer(c, tr)
			if err != nil {
				t.Fatalf("accepted trailer does not marshal into its own page: %v", err)
			}
			back, err := parseAUTrailer(c, again)
			if err != nil || !reflect.DeepEqual(back, tr) {
				t.Fatalf("trailer does not round-trip: %v\n%+v\n%+v", err, tr, back)
			}
		}
	})
}

// FuzzParseSegioTrailer feeds parseSegioTrailer arbitrary stripes, each as
// given and again with the stripe CRC made to match. Nothing may panic, and
// a trailer it accepts keeps its offsets inside the stripe, with data
// ending before the log starts, and stamping it onto the same stripe gives
// back the same trailer.
func FuzzParseSegioTrailer(f *testing.F) {
	for _, n := range []int{segioTrailerSize, 200, 4096} {
		stripe := make([]byte, n)
		sim.NewRand(uint64(n)).Bytes(stripe[:n-segioTrailerSize])
		putSegioTrailer(stripe, segioTrailer{DataLen: uint32(n / 4), LogStart: uint32(n / 2), RecCount: 3, SeqMin: 5, SeqMax: 9})
		f.Add(stripe)
	}
	f.Fuzz(func(t *testing.T, stripe []byte) {
		fixed := bytes.Clone(stripe)
		if n := len(fixed) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(fixed[n:], crc32.ChecksumIEEE(fixed[:n]))
		}
		for _, in := range [][]byte{stripe, fixed} {
			tr, err := parseSegioTrailer(in)
			if err != nil {
				continue
			}
			if tr.DataLen > tr.LogStart || int(tr.LogStart) > len(in) {
				t.Fatalf("accepted trailer %+v of a %d-byte stripe", tr, len(in))
			}
			again := bytes.Clone(in)
			putSegioTrailer(again, tr)
			if back, err := parseSegioTrailer(again); err != nil || back != tr {
				t.Fatalf("trailer does not round-trip: %v\n%+v\n%+v", err, tr, back)
			}
		}
	})
}
