// Package frontier implements Purity's boot region and frontier sets
// (§4.3, Figure 5 of the paper). The main region of every drive holds
// segments; the boot region is a tiny reserved area holding checkpoint
// records: the locations of the metadata relations (patch catalogs),
// allocator state, and — critically — the frontier set, the list of AUs
// the system has committed to allocate from next.
//
// Because segments are only ever opened on frontier AUs, recovery needs to
// scan just those AUs for log records written since the checkpoint, instead
// of every AU in the array. The paper reports this cut startup scans from
// 12 s to 0.1 s; experiment F5 reproduces the shape.
package frontier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"purity/internal/crashpoint"
	"purity/internal/layout"
	"purity/internal/sim"
	"purity/internal/ssd"
	"purity/internal/tuple"
)

// Checkpoint is one boot-region record: everything recovery needs besides
// the frontier scan and the NVRAM replay.
type Checkpoint struct {
	Epoch        uint64
	SeqWatermark tuple.Watermark // facts ≤ this are in patches below
	NextMedium   uint64
	NextVolume   uint64
	NextSegment  uint64

	Frontier    []layout.AU // AUs new segments will use next
	Speculative []layout.AU // approximation of the following frontier

	Segments []layout.SegmentInfo // live segments at checkpoint time
	Patches  [][]byte             // pyramid.MarshalPatch blobs, all relations
}

const ckptMagic = 0x50434b50 // "PKCP"

// Marshal serializes the checkpoint with a CRC header.
func Marshal(c *Checkpoint) []byte {
	var b []byte
	b = binary.AppendUvarint(b, c.Epoch)
	b = binary.AppendUvarint(b, uint64(c.SeqWatermark))
	b = binary.AppendUvarint(b, c.NextMedium)
	b = binary.AppendUvarint(b, c.NextVolume)
	b = binary.AppendUvarint(b, c.NextSegment)
	appendAUs := func(aus []layout.AU) {
		b = binary.AppendUvarint(b, uint64(len(aus)))
		for _, au := range aus {
			b = binary.AppendUvarint(b, uint64(au.Drive))
			b = binary.AppendUvarint(b, uint64(au.Index))
		}
	}
	appendAUs(c.Frontier)
	appendAUs(c.Speculative)
	b = binary.AppendUvarint(b, uint64(len(c.Segments)))
	for _, s := range c.Segments {
		b = binary.AppendUvarint(b, uint64(s.ID))
		b = binary.AppendUvarint(b, uint64(s.Stripes))
		sealed := uint64(0)
		if s.Sealed {
			sealed = 1
		}
		b = binary.AppendUvarint(b, sealed)
		b = binary.AppendUvarint(b, uint64(s.SeqMin))
		b = binary.AppendUvarint(b, uint64(s.SeqMax))
		b = binary.AppendUvarint(b, uint64(len(s.AUs)))
		for _, au := range s.AUs {
			b = binary.AppendUvarint(b, uint64(au.Drive))
			b = binary.AppendUvarint(b, uint64(au.Index))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(c.Patches)))
	for _, p := range c.Patches {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}

	out := make([]byte, 0, len(b)+12)
	out = binary.LittleEndian.AppendUint32(out, ckptMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(b))
	return append(out, b...)
}

// ErrNoCheckpoint marks an empty or invalid boot slot.
var ErrNoCheckpoint = errors.New("frontier: no valid checkpoint")

// Unmarshal parses a boot-region slot.
func Unmarshal(raw []byte) (*Checkpoint, error) {
	if len(raw) < 12 || binary.LittleEndian.Uint32(raw) != ckptMagic {
		return nil, ErrNoCheckpoint
	}
	n := int(binary.LittleEndian.Uint32(raw[4:]))
	sum := binary.LittleEndian.Uint32(raw[8:])
	if 12+n > len(raw) {
		return nil, ErrNoCheckpoint
	}
	b := raw[12 : 12+n]
	if crc32.ChecksumIEEE(b) != sum {
		return nil, ErrNoCheckpoint
	}
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, ErrNoCheckpoint
		}
		pos += n
		return v, nil
	}
	c := &Checkpoint{}
	var v uint64
	var err error
	if c.Epoch, err = next(); err != nil {
		return nil, err
	}
	if v, err = next(); err != nil {
		return nil, err
	}
	c.SeqWatermark = tuple.Watermark(v)
	if c.NextMedium, err = next(); err != nil {
		return nil, err
	}
	if c.NextVolume, err = next(); err != nil {
		return nil, err
	}
	if c.NextSegment, err = next(); err != nil {
		return nil, err
	}
	readAUs := func() ([]layout.AU, error) {
		count, err := next()
		if err != nil || count > 1<<20 {
			return nil, ErrNoCheckpoint
		}
		aus := make([]layout.AU, 0, count)
		for i := uint64(0); i < count; i++ {
			d, err := next()
			if err != nil {
				return nil, err
			}
			idx, err := next()
			if err != nil {
				return nil, err
			}
			aus = append(aus, layout.AU{Drive: int(d), Index: int64(idx)})
		}
		return aus, nil
	}
	if c.Frontier, err = readAUs(); err != nil {
		return nil, err
	}
	if c.Speculative, err = readAUs(); err != nil {
		return nil, err
	}
	segCount, err := next()
	if err != nil || segCount > 1<<24 {
		return nil, ErrNoCheckpoint
	}
	for i := uint64(0); i < segCount; i++ {
		var s layout.SegmentInfo
		if v, err = next(); err != nil {
			return nil, err
		}
		s.ID = layout.SegmentID(v)
		if v, err = next(); err != nil {
			return nil, err
		}
		s.Stripes = int(v)
		if v, err = next(); err != nil {
			return nil, err
		}
		s.Sealed = v == 1
		if v, err = next(); err != nil {
			return nil, err
		}
		s.SeqMin = tuple.Seq(v)
		if v, err = next(); err != nil {
			return nil, err
		}
		s.SeqMax = tuple.Seq(v)
		if s.AUs, err = readAUs(); err != nil {
			return nil, err
		}
		c.Segments = append(c.Segments, s)
	}
	patchCount, err := next()
	if err != nil || patchCount > 1<<24 {
		return nil, ErrNoCheckpoint
	}
	for i := uint64(0); i < patchCount; i++ {
		if v, err = next(); err != nil {
			return nil, err
		}
		if v > uint64(len(b)-pos) {
			return nil, ErrNoCheckpoint
		}
		c.Patches = append(c.Patches, append([]byte(nil), b[pos:pos+int(v)]...))
		pos += int(v)
	}
	return c, nil
}

// BootRegion reads and writes checkpoint records in the reserved boot AUs.
// Records replicate across the first replicas drives, in two alternating
// slots, so a torn write or a drive failure never loses the boot chain.
type BootRegion struct {
	cfg      layout.Config
	drives   []*ssd.Device
	replicas int
	crash    *crashpoint.Registry
}

// SetCrash installs a crash-point registry (nil disables injection).
func (br *BootRegion) SetCrash(r *crashpoint.Registry) { br.crash = r }

// NewBootRegion returns a boot region over the shelf's drives.
func NewBootRegion(cfg layout.Config, drives []*ssd.Device) *BootRegion {
	replicas := 3
	if replicas > len(drives) {
		replicas = len(drives)
	}
	return &BootRegion{cfg: cfg, drives: drives, replicas: replicas}
}

// slotSize is half the boot AU: two alternating slots per drive.
func (br *BootRegion) slotSize() int64 { return br.cfg.AUSize() / 2 }

// Write persists the checkpoint to slot (epoch % 2) of every replica drive.
// At least one replica must succeed.
func (br *BootRegion) Write(at sim.Time, c *Checkpoint) (sim.Time, error) {
	raw := Marshal(c)
	if int64(len(raw)) > br.slotSize() {
		return at, fmt.Errorf("frontier: checkpoint %d bytes exceeds boot slot %d", len(raw), br.slotSize())
	}
	off := int64(c.Epoch%2) * br.slotSize()
	done := at
	succeeded := 0
	// A crash before any replica write loses this checkpoint entirely;
	// recovery falls back to the previous epoch's slot.
	br.crash.Hit("frontier.boot.begin")
	for i := 0; i < br.replicas; i++ {
		d, err := br.drives[i].WriteAt(at, raw, off)
		if err != nil {
			continue
		}
		succeeded++
		if d > done {
			done = d
		}
		// A crash here leaves the new checkpoint on a strict subset of the
		// replicas; ReadLatest still finds it by epoch.
		br.crash.Hit("frontier.boot.replica")
	}
	if succeeded == 0 {
		return done, errors.New("frontier: no boot replica written")
	}
	return done, nil
}

// ReadLatest scans every replica's slots and returns the valid checkpoint
// with the highest epoch, or ErrNoCheckpoint for a factory-fresh shelf.
func (br *BootRegion) ReadLatest(at sim.Time) (*Checkpoint, sim.Time, error) {
	var best *Checkpoint
	done := at
	buf := make([]byte, br.slotSize())
	for i := 0; i < br.replicas; i++ {
		for slot := int64(0); slot < 2; slot++ {
			d, err := br.drives[i].ReadAt(at, buf, slot*br.slotSize())
			if d > done {
				done = d
			}
			if err != nil {
				continue
			}
			c, err := Unmarshal(buf)
			if err != nil {
				continue
			}
			if best == nil || c.Epoch > best.Epoch {
				best = c
			}
		}
	}
	if best == nil {
		return nil, done, ErrNoCheckpoint
	}
	return best, done, nil
}
