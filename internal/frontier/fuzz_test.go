package frontier

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzUnmarshal feeds Unmarshal arbitrary boot-region slots, each as given
// and again with its header's length and CRC made to match the bytes after
// it, so the fuzzer also reaches the field parser. Nothing may panic, and a
// checkpoint Unmarshal accepts marshals to bytes that unmarshal to an equal
// one.
func FuzzUnmarshal(f *testing.F) {
	raw := Marshal(sampleCheckpoint())
	for n := 0; n <= len(raw); n++ {
		f.Add(raw[:n])
	}
	f.Add(Marshal(&Checkpoint{}))
	// Eight zero fields, then one patch whose length is past the int range:
	// it once made the bounds check wrap negative and the slice panic.
	huge := append(make([]byte, 12), 0, 0, 0, 0, 0, 0, 0, 0, 1)
	f.Add(binary.AppendUvarint(huge, 1<<63))
	f.Fuzz(func(t *testing.T, slot []byte) {
		fixed := bytes.Clone(slot)
		if len(fixed) >= 12 {
			binary.LittleEndian.PutUint32(fixed, ckptMagic)
			binary.LittleEndian.PutUint32(fixed[4:], uint32(len(fixed)-12))
			binary.LittleEndian.PutUint32(fixed[8:], crc32.ChecksumIEEE(fixed[12:]))
		}
		for _, in := range [][]byte{slot, fixed} {
			c, err := Unmarshal(in)
			if err != nil {
				if err != ErrNoCheckpoint {
					t.Fatalf("Unmarshal error %v, want ErrNoCheckpoint", err)
				}
				continue
			}
			again, err := Unmarshal(Marshal(c))
			if err != nil {
				t.Fatalf("re-marshaled checkpoint rejected: %v", err)
			}
			if !reflect.DeepEqual(again, c) {
				t.Fatalf("re-marshaled checkpoint differs:\n%+v\n%+v", again, c)
			}
		}
	})
}
