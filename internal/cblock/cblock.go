// Package cblock implements Purity's compressed block format (§4.6 of the
// paper). A cblock is the unit of compression and deduplication: it holds
// between 1 and 64 sectors (512 B – 32 KiB) of application data, sized to
// match the write that created it, because reads overwhelmingly use the
// same alignment and size as the original write.
package cblock

import (
	"errors"
	"fmt"

	"purity/internal/compress"
)

// Sizing constants (§4.6, §4.7).
const (
	SectorSize = 512 // minimum block size of existing protocols
	MaxSectors = 64  // cblocks are sized to writes, up to 32 KiB
	MaxBytes   = SectorSize * MaxSectors
)

// Errors.
var (
	ErrUnaligned = errors.New("cblock: length not a multiple of the sector size")
	ErrTooLarge  = errors.New("cblock: more than MaxSectors sectors")
	ErrCorrupt   = errors.New("cblock: corrupt frame")
)

// Pack compresses sectors (a multiple of SectorSize, at most MaxBytes) into
// a cblock frame. With compression disabled it stores raw — the frame
// format is the same, so readers never care.
func Pack(data []byte, compressionEnabled bool) ([]byte, error) {
	if len(data) == 0 || len(data)%SectorSize != 0 {
		return nil, ErrUnaligned
	}
	if len(data) > MaxBytes {
		return nil, ErrTooLarge
	}
	if !compressionEnabled {
		// compress.Compress falls back to a raw frame when compression
		// does not help; forcing that path keeps one decoder.
		frame := make([]byte, 0, compress.MaxCompressedLen(len(data)))
		return appendRawFrame(frame, data), nil
	}
	return compress.Compress(nil, data), nil
}

// appendRawFrame builds a stored-raw compress frame without running the
// compressor.
func appendRawFrame(dst, data []byte) []byte {
	// Method byte 0 (raw) + uvarint length + payload, mirroring the
	// compress package's frame layout.
	dst = append(dst, 0x00)
	n := len(data)
	for n >= 0x80 {
		dst = append(dst, byte(n)|0x80)
		n >>= 7
	}
	dst = append(dst, byte(n))
	return append(dst, data...)
}

// Unpack decompresses a cblock frame into its sectors.
func Unpack(frame []byte) ([]byte, error) {
	out, _, err := compress.Decompress(nil, frame)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(out) == 0 || len(out)%SectorSize != 0 {
		// A valid cblock holds at least one sector; an "empty" frame means
		// the caller read bytes that were never a cblock (stale pointer).
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
