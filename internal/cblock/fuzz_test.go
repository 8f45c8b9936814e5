package cblock

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"purity/internal/sim"
)

// FuzzUnpack feeds Unpack arbitrary frames, each as given and again with its
// trailing CRC made to match, so the fuzzer also reaches the decompressor.
// Nothing may panic; a frame Unpack accepts passes Check and holds whole
// sectors, and packing those sectors again yields a frame that unpacks to
// them.
func FuzzUnpack(f *testing.F) {
	for _, n := range []int{1, 3, 64} {
		data := make([]byte, n*SectorSize)
		sim.NewRand(uint64(n)).Bytes(data[:len(data)/2]) // half random, half zeros: both frame methods
		for _, comp := range []bool{true, false} {
			frame, err := Pack(data, comp)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		fixed := bytes.Clone(frame)
		if n := len(fixed) - crcSize; n >= 0 {
			binary.LittleEndian.PutUint32(fixed[n:], crc32.Checksum(fixed[:n], castagnoli))
		}
		for _, in := range [][]byte{frame, fixed} {
			out, err := Unpack(in)
			if err != nil {
				continue
			}
			if !Check(in) {
				t.Fatalf("Unpack accepted a frame that fails Check: %x", in)
			}
			if len(out) == 0 || len(out)%SectorSize != 0 || len(out) > MaxBytes {
				t.Fatalf("Unpack returned %d bytes", len(out))
			}
			again, err := Pack(out, true)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := Unpack(again); err != nil || !bytes.Equal(got, out) {
				t.Fatalf("repacked sectors do not round-trip: %v", err)
			}
		}
	})
}
