// Package relation defines the schemas of Purity's metadata relations and
// the typed row forms of their facts. Every relation is stored in a pyramid
// (§4.8 of the paper); this package is the mapping between Go structs and
// the uint64-column facts the pyramids index.
//
// Important relations, per §4.8: the medium table, the address map (user
// data mappings), the deduplication table, the segment table (with its AU
// placement), and the elide tables.
package relation

import "purity/internal/tuple"

// Relation IDs, stamped into patch descriptors so recovery can route
// rediscovered patches to the right pyramid.
const (
	IDMediums    uint32 = 1
	IDAddrs      uint32 = 2
	IDDedup      uint32 = 3
	IDSegments   uint32 = 4
	IDSegmentAUs uint32 = 5
	IDVolumes    uint32 = 6
	IDElide      uint32 = 7
)

// Schemas, by relation.
var (
	MediumsSchema    = tuple.Schema{Cols: 6, KeyCols: 2}
	AddrsSchema      = tuple.Schema{Cols: 8, KeyCols: 2}
	DedupSchema      = tuple.Schema{Cols: 5, KeyCols: 1}
	SegmentsSchema   = tuple.Schema{Cols: 5, KeyCols: 1}
	SegmentAUsSchema = tuple.Schema{Cols: 4, KeyCols: 2}
	VolumesSchema    = tuple.Schema{Cols: 4, KeyCols: 1, HasBlob: true}
	ElideSchema      = tuple.Schema{Cols: 5, KeyCols: 3}
)

// --- Medium table (Figure 6) -------------------------------------------

// Medium statuses. The paper's Figure 6 shows RO (sealed snapshots and
// interior nodes) and RW (the writable leaf of each volume).
const (
	MediumRO uint64 = 0
	MediumRW uint64 = 1
)

// NoMedium is the "none" target in Figure 6: reads that resolve here hit
// unwritten space and return zeros. Medium IDs start at 1.
const NoMedium uint64 = 0

// MediumRow is one row of the medium table: sectors [Start, End] of medium
// Source are backed by medium Target at Target's offset TargetOff (sector
// units), unless overridden by cblocks written directly to Source.
// Rows are immutable facts: decode, read, re-emit — never write through.
type MediumRow struct {
	Source    uint64
	Start     uint64
	End       uint64
	Target    uint64
	TargetOff uint64
	Status    uint64
}

// Fact encodes the row with a sequence number.
func (r MediumRow) Fact(seq tuple.Seq) tuple.Fact {
	return tuple.Fact{Seq: seq, Cols: []uint64{r.Source, r.Start, r.End, r.Target, r.TargetOff, r.Status}}
}

// MediumFromFact decodes a medium-table fact.
func MediumFromFact(f tuple.Fact) MediumRow {
	return MediumRow{
		Source: f.Cols[0], Start: f.Cols[1], End: f.Cols[2],
		Target: f.Cols[3], TargetOff: f.Cols[4], Status: f.Cols[5],
	}
}

// --- Address map ---------------------------------------------------------

// Address-map flags.
const (
	AddrFlagDedup uint64 = 1 << 0 // mapping points at another write's data
)

// AddrRow maps sectors [Sector, Sector+Sectors) of a medium to sectors
// [Inner, Inner+Sectors) of the cblock at (Segment, SegOff, PhysLen).
// Sector units are 512 B (§4.6); SegOff and PhysLen are bytes within the
// segment's logical space. Inner is 0 for plain writes and nonzero for
// dedup references into the middle of another write's cblock.
// Rows are immutable facts: decode, read, re-emit — never write through.
type AddrRow struct {
	Medium  uint64
	Sector  uint64
	Segment uint64
	SegOff  uint64
	PhysLen uint64
	Inner   uint64
	Sectors uint64
	Flags   uint64
}

// Fact encodes the row with a sequence number.
func (r AddrRow) Fact(seq tuple.Seq) tuple.Fact {
	return r.FactIn(make([]uint64, AddrsSchema.Cols), seq)
}

// FactIn is Fact with the columns written to cols, which must hold
// AddrsSchema.Cols of them.
func (r AddrRow) FactIn(cols []uint64, seq tuple.Seq) tuple.Fact {
	cols = cols[:8]
	cols[0], cols[1], cols[2], cols[3] = r.Medium, r.Sector, r.Segment, r.SegOff
	cols[4], cols[5], cols[6], cols[7] = r.PhysLen, r.Inner, r.Sectors, r.Flags
	return tuple.Fact{Seq: seq, Cols: cols}
}

// AddrFromFact decodes an address-map fact.
func AddrFromFact(f tuple.Fact) AddrRow {
	return AddrRow{
		Medium: f.Cols[0], Sector: f.Cols[1], Segment: f.Cols[2],
		SegOff: f.Cols[3], PhysLen: f.Cols[4], Inner: f.Cols[5], Sectors: f.Cols[6], Flags: f.Cols[7],
	}
}

// RemapAddr returns a copy of an address fact re-pointed at a new physical
// location, keeping its sequence number. NVRAM replay uses it when a
// record's data is re-placed into a fresh segment.
func RemapAddr(f tuple.Fact, seg, segOff, physLen uint64) tuple.Fact {
	r := AddrFromFact(f)
	r.Segment, r.SegOff, r.PhysLen = seg, segOff, physLen
	return r.Fact(f.Seq)
}

// --- Deduplication table -------------------------------------------------

// DedupRow records that the 512 B block with the given hash lives at sector
// SectorIdx within the cblock at (Segment, SegOff, PhysLen). Only every
// eighth block's hash is recorded (§4.7); entries may go stale when GC
// moves data, so users byte-verify before trusting them.
// Rows are immutable facts: decode, read, re-emit — never write through.
type DedupRow struct {
	Hash      uint64
	Segment   uint64
	SegOff    uint64
	PhysLen   uint64
	SectorIdx uint64
}

// Fact encodes the row with a sequence number.
func (r DedupRow) Fact(seq tuple.Seq) tuple.Fact {
	return r.FactIn(make([]uint64, DedupSchema.Cols), seq)
}

// FactIn is Fact with the columns written to cols, which must hold
// DedupSchema.Cols of them.
func (r DedupRow) FactIn(cols []uint64, seq tuple.Seq) tuple.Fact {
	cols = cols[:5]
	cols[0], cols[1], cols[2], cols[3], cols[4] = r.Hash, r.Segment, r.SegOff, r.PhysLen, r.SectorIdx
	return tuple.Fact{Seq: seq, Cols: cols}
}

// DedupFromFact decodes a dedup-table fact.
func DedupFromFact(f tuple.Fact) DedupRow {
	return DedupRow{Hash: f.Cols[0], Segment: f.Cols[1], SegOff: f.Cols[2], PhysLen: f.Cols[3], SectorIdx: f.Cols[4]}
}

// RemapDedup returns a copy of a dedup fact re-pointed at a new physical
// location, keeping its sequence number. See RemapAddr.
func RemapDedup(f tuple.Fact, seg, segOff, physLen uint64) tuple.Fact {
	r := DedupFromFact(f)
	r.Segment, r.SegOff, r.PhysLen = seg, segOff, physLen
	return r.Fact(f.Seq)
}

// --- Segment table ---------------------------------------------------------

// Segment states.
const (
	SegmentOpen   uint64 = 0
	SegmentSealed uint64 = 1
	SegmentDead   uint64 = 2
)

// SegmentRow tracks one segment. LiveBytes is a materialized aggregate kept
// approximately (§3.3: "we keep approximations and then fix them up by
// issuing additional reads at runtime"); GC recomputes the truth when it
// considers the segment.
// Rows are immutable facts: decode, read, re-emit — never write through.
type SegmentRow struct {
	Segment    uint64
	State      uint64
	Stripes    uint64
	TotalBytes uint64
	LiveBytes  uint64
}

// Fact encodes the row with a sequence number.
func (r SegmentRow) Fact(seq tuple.Seq) tuple.Fact {
	return tuple.Fact{Seq: seq, Cols: []uint64{r.Segment, r.State, r.Stripes, r.TotalBytes, r.LiveBytes}}
}

// SegmentFromFact decodes a segment-table fact.
func SegmentFromFact(f tuple.Fact) SegmentRow {
	return SegmentRow{Segment: f.Cols[0], State: f.Cols[1], Stripes: f.Cols[2], TotalBytes: f.Cols[3], LiveBytes: f.Cols[4]}
}

// SegmentAURow records that shard Shard of a segment lives on (Drive, AU).
// Rows are immutable facts: decode, read, re-emit — never write through.
type SegmentAURow struct {
	Segment uint64
	Shard   uint64
	Drive   uint64
	AUIndex uint64
}

// Fact encodes the row with a sequence number.
func (r SegmentAURow) Fact(seq tuple.Seq) tuple.Fact {
	return tuple.Fact{Seq: seq, Cols: []uint64{r.Segment, r.Shard, r.Drive, r.AUIndex}}
}

// SegmentAUFromFact decodes a segment-AU fact.
func SegmentAUFromFact(f tuple.Fact) SegmentAURow {
	return SegmentAURow{Segment: f.Cols[0], Shard: f.Cols[1], Drive: f.Cols[2], AUIndex: f.Cols[3]}
}

// --- Volume catalog ---------------------------------------------------------

// Volume kinds/states.
const (
	VolumeActive   uint64 = 0
	VolumeSnapshot uint64 = 1
	VolumeDeleted  uint64 = 2
)

// VolumeRow names a volume or snapshot and points at its current medium.
// SizeSectors is the thin-provisioned virtual size.
// Rows are immutable facts: decode, read, re-emit — never write through.
type VolumeRow struct {
	Volume      uint64
	Medium      uint64
	SizeSectors uint64
	State       uint64
	Name        string
}

// Fact encodes the row with a sequence number.
func (r VolumeRow) Fact(seq tuple.Seq) tuple.Fact {
	return tuple.Fact{
		Seq:  seq,
		Cols: []uint64{r.Volume, r.Medium, r.SizeSectors, r.State},
		Blob: []byte(r.Name),
	}
}

// VolumeFromFact decodes a volume-catalog fact.
func VolumeFromFact(f tuple.Fact) VolumeRow {
	return VolumeRow{
		Volume: f.Cols[0], Medium: f.Cols[1], SizeSectors: f.Cols[2], State: f.Cols[3],
		Name: string(f.Blob),
	}
}

// --- Persisted elide predicates ---------------------------------------------

// ElideRow persists one elide predicate against a base relation. The
// in-memory elide.Table per relation is materialized from these facts at
// recovery.
// Rows are immutable facts: decode, read, re-emit — never write through.
type ElideRow struct {
	Table  uint32 // relation ID the predicate applies to
	Col    uint64
	Lo, Hi uint64
	MaxSeq tuple.Seq
}

// Fact encodes the row with a sequence number.
func (r ElideRow) Fact(seq tuple.Seq) tuple.Fact {
	return tuple.Fact{Seq: seq, Cols: []uint64{uint64(r.Table), r.Col, r.Lo, r.Hi, uint64(r.MaxSeq)}}
}

// ElideFromFact decodes a persisted elide predicate.
func ElideFromFact(f tuple.Fact) ElideRow {
	return ElideRow{
		Table: uint32(f.Cols[0]), Col: f.Cols[1], Lo: f.Cols[2], Hi: f.Cols[3], MaxSeq: tuple.Seq(f.Cols[4]),
	}
}

// SchemaFor returns the schema of a relation ID, or ok=false.
func SchemaFor(id uint32) (tuple.Schema, bool) {
	switch id {
	case IDMediums:
		return MediumsSchema, true
	case IDAddrs:
		return AddrsSchema, true
	case IDDedup:
		return DedupSchema, true
	case IDSegments:
		return SegmentsSchema, true
	case IDSegmentAUs:
		return SegmentAUsSchema, true
	case IDVolumes:
		return VolumesSchema, true
	case IDElide:
		return ElideSchema, true
	}
	return tuple.Schema{}, false
}
