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

// TestRawPackLayout spells out the frame a cblock stored with compression
// off: method 0, the uvarint sector bytes, the sectors, the CRC.
func TestRawPackLayout(t *testing.T) {
	for _, c := range []struct {
		sectors int
		varint  []byte
	}{{1, []byte{0x80, 0x04}}, {64, []byte{0x80, 0x80, 0x02}}} {
		data := make([]byte, c.sectors*SectorSize)
		sim.NewRand(uint64(c.sectors)).Bytes(data)
		frame, err := Pack(data, false)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte{0x00}, c.varint...), data...)
		if n := len(frame) - crcSize; n < 0 || !bytes.Equal(frame[:n], want) || !Check(frame) {
			t.Fatalf("%d sectors: raw frame is not method 0, length, sectors, CRC", c.sectors)
		}
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

// TestUnpackAllocatesOnce pins a cache miss's decompression to one
// allocation: the frame header gives the output length, so the sectors are
// allocated at their final size rather than grown as the stream decodes.
func TestUnpackAllocatesOnce(t *testing.T) {
	// Half random, half repeated: a frame of literals and matches both.
	data := make([]byte, MaxBytes)
	sim.NewRand(9).Bytes(data[:MaxBytes/2])
	copy(data[MaxBytes/2:], bytes.Repeat([]byte("purity cblock "), MaxBytes/2/14+1))
	frame, err := Pack(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) >= len(data) {
		t.Fatalf("frame of %d bytes for %d: not compressed", len(frame), len(data))
	}
	n := testing.AllocsPerRun(20, func() {
		got, err := Unpack(frame)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Unpack: %v", err)
		}
	})
	if n != 1 {
		t.Errorf("Unpack of a %d KiB cblock: %v allocations, want 1", len(data)>>10, n)
	}
}
