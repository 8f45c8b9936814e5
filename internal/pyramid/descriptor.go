package pyramid

import (
	"encoding/binary"
	"errors"
	"math"
)

// Patch descriptors are the log records the segio layer scatters among user
// data (Figure 5). Recovery parses them to rediscover patches written since
// the last checkpoint; checkpoints embed the same encoding.

const descMagic = 0x50595244 // "DRYP"

// MarshalPatch encodes a patch descriptor for relation id. Checkpoints
// embed the same encoding that segio log records carry.
func MarshalPatch(id uint32, p *Patch) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, descMagic)
	b = binary.LittleEndian.AppendUint32(b, id)
	b = binary.AppendUvarint(b, uint64(p.SeqLo))
	b = binary.AppendUvarint(b, uint64(p.SeqHi))
	b = binary.AppendUvarint(b, uint64(p.Rows))
	b = binary.AppendUvarint(b, uint64(len(p.Pages)))
	for _, pg := range p.Pages {
		b = binary.AppendUvarint(b, pg.Ref.Segment)
		b = binary.AppendUvarint(b, uint64(pg.Ref.Off))
		b = binary.AppendUvarint(b, uint64(pg.Ref.Len))
		b = binary.AppendUvarint(b, uint64(pg.Rows))
		b = binary.AppendUvarint(b, uint64(len(pg.KeyMin)))
		for _, k := range pg.KeyMin {
			b = binary.AppendUvarint(b, k)
		}
	}
	return b
}

// ErrNotDescriptor marks a log record that is not a patch descriptor.
var ErrNotDescriptor = errors.New("pyramid: not a patch descriptor")

// UnmarshalPatch decodes a patch descriptor, returning the relation id it
// belongs to. Recovery parses what it finds on the drives, so a value that
// does not fit its field is rejected, not wrapped.
func UnmarshalPatch(b []byte) (uint32, *Patch, error) {
	if len(b) < 8 || binary.LittleEndian.Uint32(b) != descMagic {
		return 0, nil, ErrNotDescriptor
	}
	id := binary.LittleEndian.Uint32(b[4:])
	pos := 8
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	p := &Patch{}
	var ok bool
	var v uint64
	if v, ok = next(); !ok {
		return 0, nil, ErrNotDescriptor
	}
	p.SeqLo = seqOf(v)
	if v, ok = next(); !ok {
		return 0, nil, ErrNotDescriptor
	}
	p.SeqHi = seqOf(v)
	if v, ok = next(); !ok || v > math.MaxInt {
		return 0, nil, ErrNotDescriptor
	}
	p.Rows = int(v)
	nPages, ok := next()
	if !ok || nPages > 1<<20 {
		return 0, nil, ErrNotDescriptor
	}
	for i := uint64(0); i < nPages; i++ {
		var pg PageMeta
		if v, ok = next(); !ok {
			return 0, nil, ErrNotDescriptor
		}
		pg.Ref.Segment = v
		if v, ok = next(); !ok || v > math.MaxInt64 {
			return 0, nil, ErrNotDescriptor
		}
		pg.Ref.Off = int64(v)
		if v, ok = next(); !ok || v > math.MaxInt32 {
			return 0, nil, ErrNotDescriptor
		}
		pg.Ref.Len = int32(v)
		if v, ok = next(); !ok || v > math.MaxInt {
			return 0, nil, ErrNotDescriptor
		}
		pg.Rows = int(v)
		nKeys, ok2 := next()
		if !ok2 || nKeys > 64 {
			return 0, nil, ErrNotDescriptor
		}
		for k := uint64(0); k < nKeys; k++ {
			if v, ok = next(); !ok {
				return 0, nil, ErrNotDescriptor
			}
			pg.KeyMin = append(pg.KeyMin, v)
		}
		p.Pages = append(p.Pages, pg)
	}
	return id, p, nil
}
