// Package cblock implements Purity's compressed block format (§4.6 of the
// paper). A cblock is the unit of compression and deduplication: it holds
// between 1 and 64 sectors (512 B – 32 KiB) of application data, sized to
// match the write that created it, because reads overwhelmingly use the
// same alignment and size as the original write.
//
// A frame is what a segment stores for one cblock:
//
//	method (1 B) | uvarint sector bytes | payload | CRC-32C (4 B, little endian)
//
// The first three fields are a compress frame: method 0 stores the sectors
// raw, any other method names the codec of the payload. The CRC covers
// every byte before it, so a read of one frame checks exactly the bytes it
// moved (Check) without the write unit around it.
package cblock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"purity/internal/compress"
)

// Sizing constants (§4.6, §4.7).
const (
	SectorSize = 512 // minimum block size of existing protocols
	MaxSectors = 64  // cblocks are sized to writes, up to 32 KiB
	MaxBytes   = SectorSize * MaxSectors
	crcSize    = 4 // the frame's CRC trailer
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors.
var (
	ErrUnaligned = errors.New("cblock: length not a multiple of the sector size")
	ErrTooLarge  = errors.New("cblock: more than MaxSectors sectors")
	ErrCorrupt   = errors.New("cblock: corrupt frame")
)

// Pack compresses sectors (a multiple of SectorSize, at most MaxBytes) into
// a new cblock frame: AppendPack to a nil dst.
func Pack(data []byte, compressionEnabled bool) ([]byte, error) {
	return AppendPack(nil, data, compressionEnabled)
}

// AppendPack appends the cblock frame of sectors (a multiple of SectorSize,
// at most MaxBytes) to dst and returns the extended slice. It grows dst at
// most once, to room for the frame's worst case, so a dst with that room
// spare is never reallocated. With compression disabled it stores raw —
// the frame format is the same, so readers never care.
func AppendPack(dst, data []byte, compressionEnabled bool) ([]byte, error) {
	if len(data) == 0 || len(data)%SectorSize != 0 {
		return dst, ErrUnaligned
	}
	if len(data) > MaxBytes {
		return dst, ErrTooLarge
	}
	dst = slices.Grow(dst, compress.MaxCompressedLen(len(data))+crcSize)
	start := len(dst)
	if compressionEnabled {
		dst = compress.Compress(dst, data)
	} else {
		// compress.Compress falls back to a raw frame when compression
		// does not help; forcing that path keeps one decoder.
		dst = compress.AppendRaw(dst, data)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli)), nil
}

// Check reports whether frame ends in the CRC of the bytes before it: the
// end-to-end check of a frame read back from a segment.
func Check(frame []byte) bool {
	n := len(frame) - crcSize
	return n >= 0 && crc32.Checksum(frame[:n], castagnoli) == binary.LittleEndian.Uint32(frame[n:])
}

// Unpack checks a cblock frame and decompresses it into its sectors. A
// frame that fails Check is ErrCorrupt, never decoded.
func Unpack(frame []byte) ([]byte, error) {
	if !Check(frame) {
		return nil, ErrCorrupt
	}
	// A valid cblock is one compress frame of 1 to MaxSectors sectors;
	// anything else means the caller read bytes that were never a cblock
	// (stale pointer). The header's size is refused before a buffer that
	// size is allocated.
	body := frame[:len(frame)-crcSize]
	if len(body) < 2 {
		return nil, ErrCorrupt
	}
	if n, k := binary.Uvarint(body[1:]); k <= 0 || n == 0 || n%SectorSize != 0 || n > MaxBytes {
		return nil, ErrCorrupt
	}
	out, used, err := compress.Decompress(nil, body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if used != len(body) {
		return nil, ErrCorrupt
	}
	return out, nil
}

// Extent is one cblock-sized piece of an application write.
type Extent struct {
	Offset int // byte offset within the write
	Len    int // bytes
}

// SplitWrite chunks an application write into cblock extents. Purity infers
// the optimal transfer size from the write itself (§4.6): each extent is as
// large as possible up to MaxBytes, so a 55 KiB write becomes 32 KiB + 23
// KiB cblocks and later reads of either half touch a single cblock.
func SplitWrite(length int) ([]Extent, error) {
	if length <= 0 || length%SectorSize != 0 {
		return nil, ErrUnaligned
	}
	var out []Extent
	for off := 0; off < length; off += MaxBytes {
		n := length - off
		if n > MaxBytes {
			n = MaxBytes
		}
		out = append(out, Extent{Offset: off, Len: n})
	}
	return out, nil
}
