package relation

import (
	"testing"

	"purity/internal/tuple"
)

func TestSchemasValid(t *testing.T) {
	for id := uint32(1); id <= 7; id++ {
		s, ok := SchemaFor(id)
		if !ok {
			t.Fatalf("no schema for id %d", id)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("schema %d: %v", id, err)
		}
	}
	if _, ok := SchemaFor(99); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestMediumRowRoundTrip(t *testing.T) {
	in := MediumRow{Source: 22, Start: 500, End: 999, Target: 12, TargetOff: 2500, Status: MediumRW}
	f := in.Fact(77)
	if f.Seq != 77 || len(f.Cols) != MediumsSchema.Cols {
		t.Fatalf("fact = %+v", f)
	}
	if got := MediumFromFact(f); got != in {
		t.Fatalf("round trip: %+v != %+v", got, in)
	}
}

func TestAddrRowRoundTrip(t *testing.T) {
	in := AddrRow{Medium: 5, Sector: 1024, Segment: 33, SegOff: 8192, PhysLen: 900, Inner: 3, Sectors: 64, Flags: AddrFlagDedup}
	got := AddrFromFact(in.Fact(1))
	if got != in {
		t.Fatalf("round trip: %+v != %+v", got, in)
	}
}

func TestDedupRowRoundTrip(t *testing.T) {
	in := DedupRow{Hash: 0xdeadbeefcafef00d, Segment: 7, SegOff: 4096, PhysLen: 500, SectorIdx: 3}
	got := DedupFromFact(in.Fact(9))
	if got != in {
		t.Fatalf("round trip: %+v != %+v", got, in)
	}
}

func TestSegmentRowsRoundTrip(t *testing.T) {
	in := SegmentRow{Segment: 4, State: SegmentDead}
	if got := SegmentFromFact(in.Fact(2)); got != in {
		t.Fatalf("segment: %+v != %+v", got, in)
	}
	au := SegmentAURow{Segment: 4, Shard: 2, Drive: 9, AUIndex: 17}
	if got := SegmentAUFromFact(au.Fact(3)); got != au {
		t.Fatalf("segmentAU: %+v != %+v", got, au)
	}
}

func TestVolumeRowRoundTrip(t *testing.T) {
	in := VolumeRow{Volume: 3, Medium: 18, SizeSectors: 1 << 21, State: VolumeActive, Name: "oracle-rac-01"}
	f := in.Fact(5)
	if string(f.Blob) != in.Name {
		t.Fatalf("blob = %q", f.Blob)
	}
	if got := VolumeFromFact(f); got != in {
		t.Fatalf("round trip: %+v != %+v", got, in)
	}
}

func TestElideRowRoundTrip(t *testing.T) {
	in := ElideRow{Table: IDAddrs, Col: 0, Lo: 17, Hi: 17, MaxSeq: tuple.Watermark(1 << 40)}
	if got := ElideFromFact(in.Fact(6)); got != in {
		t.Fatalf("round trip: %+v != %+v", got, in)
	}
}
