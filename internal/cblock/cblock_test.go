package cblock

import (
	"bytes"
	"testing"
	"testing/quick"

	"purity/internal/sim"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, sectors := range []int{1, 2, 7, 64} {
		data := make([]byte, sectors*SectorSize)
		sim.NewRand(uint64(sectors)).Bytes(data)
		for _, comp := range []bool{true, false} {
			frame, err := Pack(data, comp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Unpack(frame)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("sectors=%d comp=%v mismatch", sectors, comp)
			}
		}
	}
}

func TestPackRejectsBadSizes(t *testing.T) {
	if _, err := Pack(nil, true); err != ErrUnaligned {
		t.Fatalf("empty: %v", err)
	}
	if _, err := Pack(make([]byte, 100), true); err != ErrUnaligned {
		t.Fatalf("unaligned: %v", err)
	}
	if _, err := Pack(make([]byte, MaxBytes+SectorSize), true); err != ErrTooLarge {
		t.Fatalf("oversized: %v", err)
	}
}

func TestCompressionShrinksCompressible(t *testing.T) {
	data := bytes.Repeat([]byte("database page content "), 1490)[:MaxBytes]
	frame, err := Pack(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > len(data)/3 {
		t.Fatalf("compressible cblock only shrank to %d/%d", len(frame), len(data))
	}
	raw, err := Pack(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < len(data) {
		t.Fatalf("uncompressed pack shrank: %d < %d", len(raw), len(data))
	}
}

func TestExtractSectors(t *testing.T) {
	data := make([]byte, 8*SectorSize)
	for i := range data {
		data[i] = byte(i / SectorSize)
	}
	frame, _ := Pack(data, true)
	got, err := ExtractSectors(frame, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*SectorSize || got[0] != 3 || got[SectorSize] != 4 {
		t.Fatalf("extract = len %d first %d", len(got), got[0])
	}
	if _, err := ExtractSectors(frame, 7, 2); err == nil {
		t.Fatal("out-of-range extract accepted")
	}
	if _, err := ExtractSectors(frame, -1, 1); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestUnpackCorrupt(t *testing.T) {
	if _, err := Unpack([]byte{0xff, 0xff}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Unpack(nil); err == nil {
		t.Fatal("nil frame accepted")
	}
}

func TestSplitWrite(t *testing.T) {
	cases := []struct {
		length int
		want   []int
	}{
		{SectorSize, []int{SectorSize}},
		{MaxBytes, []int{MaxBytes}},
		{MaxBytes + SectorSize, []int{MaxBytes, SectorSize}},
		{55 * 1024, []int{MaxBytes, 55*1024 - MaxBytes}}, // the paper's 55 KiB average I/O
		{3 * MaxBytes, []int{MaxBytes, MaxBytes, MaxBytes}},
	}
	for _, c := range cases {
		exts, err := SplitWrite(c.length)
		if err != nil {
			t.Fatal(err)
		}
		if len(exts) != len(c.want) {
			t.Fatalf("SplitWrite(%d) = %+v", c.length, exts)
		}
		off := 0
		for i, e := range exts {
			if e.Len != c.want[i] || e.Offset != off {
				t.Fatalf("SplitWrite(%d)[%d] = %+v, want len %d at %d", c.length, i, e, c.want[i], off)
			}
			off += e.Len
		}
	}
	if _, err := SplitWrite(100); err != ErrUnaligned {
		t.Fatalf("unaligned split: %v", err)
	}
	if _, err := SplitWrite(0); err != ErrUnaligned {
		t.Fatalf("zero split: %v", err)
	}
}

func TestSplitWriteProperty(t *testing.T) {
	f := func(n uint16) bool {
		length := (int(n)%1000 + 1) * SectorSize
		exts, err := SplitWrite(length)
		if err != nil {
			return false
		}
		total := 0
		for _, e := range exts {
			if e.Len <= 0 || e.Len > MaxBytes || e.Len%SectorSize != 0 || e.Offset != total {
				return false
			}
			total += e.Len
		}
		return total == length
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
