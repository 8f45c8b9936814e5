package compress

import (
	"encoding/binary"
	"fmt"
)

// refCompress, refDecompress and the functions they call are the codec as it
// stood before its hot loops were rewritten, kept verbatim (renamed only) as
// the executable specification of the format: each decoder must read the
// other encoder's frames, Compress's frames must stay close to the
// reference's in size (TestCompressKeepsReferenceFormat), and Decompress must
// return the same bytes, the same consumed count and the same error as
// refDecompress on every input. The reference tries every byte as a match
// start, extends a match one byte at a time and decodes a match with one
// append per byte.

func refCompress(dst, src []byte) []byte {
	if len(src) > maxBlock {
		panic(fmt.Sprintf("compress: block of %d bytes exceeds cap", len(src)))
	}
	headerAt := len(dst)
	dst = append(dst, methodLZ)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	payloadAt := len(dst)

	dst = refAppendLZ(dst, src)
	if len(dst)-payloadAt >= len(src) {
		// Incompressible: rewrite the frame as raw.
		dst = dst[:headerAt]
		dst = append(dst, methodRaw)
		dst = binary.AppendUvarint(dst, uint64(len(src)))
		dst = append(dst, src...)
	}
	return dst
}

// refHash4 maps the 4 bytes at src[i:] to a table slot.
func refHash4(v uint32) uint32 {
	return (v * 2654435761) >> (32 - hashBits)
}

// refAppendLZ appends the LZ payload for src to dst.
//
// Payload grammar, repeated until input is consumed:
//
//	token    := litLen<<4 | matchLen  (4 bits each, 15 = "more bytes follow")
//	extLen   := {0xff}* finalByte     (each 0xff adds 255)
//	literals := litLen bytes
//	offset   := uint16 little-endian  (present only if a match follows)
//
// A token with matchLen nibble 0 and no trailing offset ends the stream
// (final literals).
func refAppendLZ(dst, src []byte) []byte {
	var table [1 << hashBits]int32 // position+1 of last occurrence; 0 = none
	n := len(src)
	i := 0
	litStart := 0
	for i+minMatch <= n {
		v := binary.LittleEndian.Uint32(src[i:])
		h := refHash4(v)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand >= 0 && i-cand < maxOffset && binary.LittleEndian.Uint32(src[cand:]) == v {
			// Extend the match forward.
			matchLen := minMatch
			for i+matchLen < n && src[cand+matchLen] == src[i+matchLen] {
				matchLen++
			}
			dst = refAppendSequence(dst, src[litStart:i], i-cand, matchLen)
			// Seed the table inside the match so long runs stay findable.
			end := i + matchLen
			for j := i + 1; j < end && j+minMatch <= n; j += 2 {
				table[refHash4(binary.LittleEndian.Uint32(src[j:]))] = int32(j + 1)
			}
			i = end
			litStart = i
			continue
		}
		i++
	}
	// Trailing literals, marked by a token with no match.
	lits := src[litStart:]
	dst = refAppendToken(dst, len(lits), 0)
	dst = append(dst, lits...)
	return dst
}

// refAppendSequence emits literals followed by a match of matchLen at the given
// back-reference offset.
func refAppendSequence(dst, lits []byte, offset, matchLen int) []byte {
	dst = refAppendToken(dst, len(lits), matchLen-minMatch+1)
	dst = append(dst, lits...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(offset))
	return dst
}

// refAppendToken writes the token byte plus any length-extension bytes. The
// match nibble carries matchCode (0 = stream end, otherwise matchLen-minMatch+1).
func refAppendToken(dst []byte, litLen, matchCode int) []byte {
	lit := litLen
	if lit > 15 {
		lit = 15
	}
	mc := matchCode
	if mc > 15 {
		mc = 15
	}
	dst = append(dst, byte(lit<<4|mc))
	if lit == 15 {
		dst = refAppendExtLen(dst, litLen-15)
	}
	if mc == 15 {
		dst = refAppendExtLen(dst, matchCode-15)
	}
	return dst
}

func refAppendExtLen(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 0xff)
		v -= 255
	}
	return append(dst, byte(v))
}

func refDecompress(dst, src []byte) ([]byte, int, error) {
	if len(src) < 2 {
		return dst, 0, ErrCorrupt
	}
	method := src[0]
	origLen, n := binary.Uvarint(src[1:])
	if n <= 0 {
		return dst, 0, ErrCorrupt
	}
	if origLen > maxBlock {
		return dst, 0, ErrTooLarge
	}
	pos := 1 + n
	switch method {
	case methodRaw:
		if len(src) < pos+int(origLen) {
			return dst, 0, ErrCorrupt
		}
		return append(dst, src[pos:pos+int(origLen)]...), pos + int(origLen), nil
	case methodLZ:
		// The header says how long the output is: one allocation up front
		// instead of one per doubling as the stream is decoded.
		base := len(dst)
		out := dst
		if cap(out)-base < int(origLen) {
			out = append(make([]byte, 0, base+int(origLen)), dst...)
		}
		out, consumed, err := refDecodeLZ(out, src[pos:], int(origLen))
		if err != nil {
			return dst, 0, err
		}
		if len(out)-base != int(origLen) {
			return dst, 0, ErrCorrupt
		}
		return out, pos + consumed, nil
	default:
		return dst, 0, ErrCorrupt
	}
}

func refDecodeLZ(dst, src []byte, origLen int) ([]byte, int, error) {
	base := len(dst)
	i := 0
	for {
		if i >= len(src) {
			return dst, 0, ErrCorrupt
		}
		token := src[i]
		i++
		litLen := int(token >> 4)
		matchCode := int(token & 0xf)
		if litLen == 15 {
			ext, n, err := refReadExtLen(src[i:])
			if err != nil {
				return dst, 0, err
			}
			litLen += ext
			i += n
		}
		if matchCode == 15 {
			ext, n, err := refReadExtLen(src[i:])
			if err != nil {
				return dst, 0, err
			}
			matchCode += ext
			i += n
		}
		if i+litLen > len(src) || len(dst)-base+litLen > origLen {
			return dst, 0, ErrCorrupt
		}
		dst = append(dst, src[i:i+litLen]...)
		i += litLen
		if matchCode == 0 {
			return dst, i, nil // stream end
		}
		if i+2 > len(src) {
			return dst, 0, ErrCorrupt
		}
		offset := int(binary.LittleEndian.Uint16(src[i:]))
		i += 2
		matchLen := matchCode + minMatch - 1
		from := len(dst) - offset
		if offset == 0 || from < base || len(dst)-base+matchLen > origLen {
			return dst, 0, ErrCorrupt
		}
		// Byte-by-byte copy: matches may overlap their own output (runs).
		for j := 0; j < matchLen; j++ {
			dst = append(dst, dst[from+j])
		}
	}
}

func refReadExtLen(src []byte) (int, int, error) {
	v := 0
	for n, b := range src {
		v += int(b)
		if b != 0xff {
			return v, n + 1, nil
		}
		if v > maxBlock {
			break
		}
	}
	return 0, 0, ErrCorrupt
}
