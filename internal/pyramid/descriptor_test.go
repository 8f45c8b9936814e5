package pyramid

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"purity/internal/tuple"
)

// descriptorWith returns a one-page descriptor whose page Ref carries off and
// len as they would be encoded, in range or not.
func descriptorWith(off, n uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, descMagic)
	b = binary.LittleEndian.AppendUint32(b, 7)
	for _, v := range []uint64{1, 2, 3, 1, 9, off, n, 3, 1, 42} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestUnmarshalPatchRejectsWrappedFields pins that a page Ref whose Off or
// Len does not fit its field is refused rather than wrapped negative:
// recovery would otherwise pass a negative length to a page read.
func TestUnmarshalPatchRejectsWrappedFields(t *testing.T) {
	if _, p, err := UnmarshalPatch(descriptorWith(math.MaxInt64, math.MaxInt32)); err != nil ||
		p.Pages[0].Ref != (Ref{Segment: 9, Off: math.MaxInt64, Len: math.MaxInt32}) {
		t.Fatalf("largest in-range Ref: %+v, %v", p, err)
	}
	for _, c := range []struct {
		name     string
		off, len uint64
	}{
		{"Off 2^63", 1 << 63, 4096},
		{"Len 2^31", 4096, 1 << 31},
		{"both", 1 << 63, 1 << 31},
		{"Off 2^64-1", math.MaxUint64, 4096},
	} {
		if _, p, err := UnmarshalPatch(descriptorWith(c.off, c.len)); err != ErrNotDescriptor {
			t.Errorf("%s: decoded %+v, %v; want ErrNotDescriptor", c.name, p, err)
		}
	}
}

// FuzzUnmarshalPatch: decoding never panics, and every descriptor it accepts
// re-marshals to bytes that decode to the same relation and patch.
func FuzzUnmarshalPatch(f *testing.F) {
	store := NewMemStore()
	p, err := New(Config{ID: 7, Name: "fuzz", Schema: tuple.Schema{Cols: 3, KeyCols: 2}, PageRows: 4}, store, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := p.Insert([]tuple.Fact{{Seq: tuple.Seq(i + 1), Cols: []uint64{i / 3, i, i * i}}}); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := p.Flush(0, 10); err != nil {
		f.Fatal(err)
	}
	f.Add(store.Descriptors[0])
	f.Add(descriptorWith(1<<63, 1<<31))
	f.Fuzz(func(t *testing.T, b []byte) {
		id, patch, err := UnmarshalPatch(b)
		if err != nil {
			return
		}
		id2, patch2, err := UnmarshalPatch(MarshalPatch(id, patch))
		if err != nil || id2 != id || !reflect.DeepEqual(patch2, patch) {
			t.Fatalf("re-marshalled descriptor decodes to %d %+v, %v; want %d %+v", id2, patch2, err, id, patch)
		}
	})
}
