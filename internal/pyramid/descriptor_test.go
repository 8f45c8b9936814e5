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
// re-marshals to bytes that decode to the same relation and patch. Every
// accepted descriptor then goes to AddPatch on a fresh pyramid over the
// store holding the seed patch's pages, and if AddPatch accepts it, Get,
// GetFloor and GetCeil on a few keys return without panicking (a page the
// store does not hold is an error).
func FuzzUnmarshalPatch(f *testing.F) {
	seed, store := threePages(f, func([]PageMeta) {})
	short, _ := threePages(f, func(pages []PageMeta) { pages[1].KeyMin = pages[1].KeyMin[:1] })
	f.Add(seed)
	f.Add(descriptorWith(1<<63, 1<<31))
	f.Add(short)
	f.Fuzz(func(t *testing.T, b []byte) {
		id, patch, err := UnmarshalPatch(b)
		if err != nil {
			return
		}
		id2, patch2, err := UnmarshalPatch(MarshalPatch(id, patch))
		if err != nil || id2 != id || !reflect.DeepEqual(patch2, patch) {
			t.Fatalf("re-marshalled descriptor decodes to %d %+v, %v; want %d %+v", id2, patch2, err, id, patch)
		}
		p, err := New(Config{ID: 7, Name: "fuzz", Schema: tuple.Schema{Cols: 3, KeyCols: 2}, PageRows: 4}, store, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.AddPatch(patch) != nil {
			return
		}
		for _, key := range [][]uint64{{0, 0}, {1, 4}, {2, 40}, {3, 9}, {9, 1}} {
			p.Get(0, key)
			p.GetFloor(0, key[:1], key[1])
			p.GetCeil(0, key[:1], key[1])
		}
	})
}

// threePages returns the descriptor of a two-column-key patch of three
// pages, after cut has edited its page list, and the store holding the
// pages.
func threePages(t testing.TB, cut func(pages []PageMeta)) ([]byte, *MemStore) {
	t.Helper()
	store := NewMemStore()
	p, err := New(Config{ID: 7, Name: "fuzz", Schema: tuple.Schema{Cols: 3, KeyCols: 2}, PageRows: 4}, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := p.Insert([]tuple.Fact{{Seq: tuple.Seq(i + 1), Cols: []uint64{i / 3, i, i * i}}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Flush(0, 10); err != nil {
		t.Fatal(err)
	}
	patch := p.Patches()[0]
	if len(patch.Pages) != 3 {
		t.Fatalf("%d pages, want 3", len(patch.Pages))
	}
	pages := append([]PageMeta(nil), patch.Pages...)
	cut(pages)
	return MarshalPatch(7, &Patch{SeqLo: patch.SeqLo, SeqHi: patch.SeqHi, Pages: pages, Rows: patch.Rows}), store
}

// TestAddPatchRejectsUnsearchableKeys: a descriptor whose page KeyMin has
// the wrong width, or whose KeyMins do not ascend strictly, decodes (the
// descriptor format cannot tell), but AddPatch refuses it and installs
// nothing, so no lookup indexes past a short key or binary-searches an
// unsorted page list.
func TestAddPatchRejectsUnsearchableKeys(t *testing.T) {
	for _, c := range []struct {
		name string
		cut  func(pages []PageMeta)
	}{
		{"short KeyMin", func(pages []PageMeta) { pages[1].KeyMin = pages[1].KeyMin[:1] }},
		{"long KeyMin", func(pages []PageMeta) { pages[1].KeyMin = append(pages[1].KeyMin, 0) }},
		{"equal KeyMins", func(pages []PageMeta) { pages[2].KeyMin = pages[1].KeyMin }},
		{"descending KeyMins", func(pages []PageMeta) { pages[1], pages[2] = pages[2], pages[1] }},
	} {
		desc, store := threePages(t, c.cut)
		_, patch, err := UnmarshalPatch(desc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p, err := New(Config{ID: 7, Name: "recovered", Schema: tuple.Schema{Cols: 3, KeyCols: 2}, PageRows: 4}, store, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddPatch(patch); err == nil {
			t.Errorf("%s: AddPatch accepted %+v", c.name, patch.Pages)
		}
		if n := len(p.Patches()); n != 0 {
			t.Errorf("%s: %d patches installed after a refused AddPatch", c.name, n)
		}
		if _, ok, _, err := p.GetFloor(0, []uint64{1}, 40); ok || err != nil {
			t.Errorf("%s: GetFloor on an empty pyramid: %v, %v", c.name, ok, err)
		}
	}
}
