// Package compress implements the fast block compressor Purity applies to
// every cblock before it reaches flash (§3.1, §4.6 of the paper).
//
// Log-structured layout means compressed output never needs to be updated in
// place, so the format can pack tightly with no alignment padding. The codec
// is a byte-oriented LZ77 variant in the LZ4 family: greedy matching against
// a 4-byte hash table, literals and matches interleaved, 16-bit back
// references. It favors speed over ratio — the inline data path compresses
// every write — and a stored-raw escape guarantees incompressible data costs
// only the frame header.
//
// Each byte's work is done once. The match search accelerates as LZ4's block
// compressor does: after a run of misses it steps over more bytes per probe
// (skipTrigger), so the random words in a sector cost a few probes, not one
// per byte. A match it finds is first walked back over the pending literals,
// which recovers the start a skip jumped past, then extended forward 8 bytes
// per compare (the first differing byte is the lowest set byte of their XOR),
// then byte by byte for the last few. The decoder writes into an output sized
// from the frame header: a literal run is one copy, a match that does not
// overlap its own output is one copy, and a match that does (a run, offset <
// length) is copied from output already written in chunks that start at
// offset bytes and double.
//
// The format, not the bytes, is the contract. The encoder may choose other
// matches than an earlier encoder did, so the same block can frame to other
// bytes; the token grammar, the frame header and the decoder do not change,
// so every frame already on flash still reads and any reader of the format
// reads new frames. lz_ref_test.go keeps the byte-at-a-time codec as the
// reference both directions are tested against.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Frame methods. A frame is: method byte, uvarint original length, payload.
const (
	methodRaw = 0x00 // payload is the original bytes
	methodLZ  = 0x01 // payload is LZ-compressed
)

// Codec parameters.
const (
	minMatch  = 4       // shortest back-reference worth encoding
	hashBits  = 13      // 8K-entry match table
	maxOffset = 1 << 16 // 16-bit back references
	maxBlock  = 8 << 20 // sanity cap on a single frame

	// skipTrigger sets how fast the match search speeds up through data
	// that does not match: after m misses in a row it steps 1+m>>skipTrigger
	// bytes, so every 1<<skipTrigger misses lengthen the step by one.
	skipTrigger = 4
)

// Errors returned by Decompress.
var (
	ErrCorrupt  = errors.New("compress: corrupt frame")
	ErrTooLarge = errors.New("compress: frame exceeds size cap")
)

// MaxCompressedLen returns an upper bound on the size of Compress(src):
// frame header plus worst-case token expansion.
func MaxCompressedLen(n int) int {
	return 1 + binary.MaxVarintLen64 + n + n/255 + 16
}

// Compress appends a compressed frame of src to dst and returns the extended
// slice. If compression does not shrink the payload the frame stores src
// verbatim, so output length never exceeds MaxCompressedLen(len(src)).
func Compress(dst, src []byte) []byte {
	if len(src) > maxBlock {
		panic(fmt.Sprintf("compress: block of %d bytes exceeds cap", len(src)))
	}
	headerAt := len(dst)
	dst = append(dst, methodLZ)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	payloadAt := len(dst)

	dst, _ = appendLZ(dst, src)
	if len(dst)-payloadAt >= len(src) {
		// Incompressible: rewrite the frame as raw.
		dst = AppendRaw(dst[:headerAt], src)
	}
	return dst
}

// AppendRaw appends a stored-raw frame of src to dst without running the
// compressor: the frame Compress falls back to for incompressible data, and
// the one a caller with compression disabled stores.
func AppendRaw(dst, src []byte) []byte {
	dst = append(dst, methodRaw)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	return append(dst, src...)
}

// hash4 maps the 4 bytes at src[i:] to a table slot.
func hash4(v uint32) uint32 {
	return (v * 2654435761) >> (32 - hashBits)
}

// appendLZ appends the LZ payload for src to dst and returns it with the
// number of hash-table probes it made, one per position it tried as a
// match start.
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
func appendLZ(dst, src []byte) ([]byte, int) {
	var table [1 << hashBits]int32 // position+1 of last occurrence; 0 = none
	n := len(src)
	i := 0
	litStart := 0
	probes := 0
	misses := 0 // probes since the last match
	for i+minMatch <= n {
		v := binary.LittleEndian.Uint32(src[i:])
		h := hash4(v)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		probes++
		if cand >= 0 && i-cand < maxOffset && binary.LittleEndian.Uint32(src[cand:]) == v {
			// Walk the match back over the pending literals: a skip may
			// have jumped past where it starts.
			for i > litStart && cand > 0 && src[i-1] == src[cand-1] {
				i--
				cand--
			}
			matchLen := extendMatch(src, cand, i)
			dst = appendSequence(dst, src[litStart:i], i-cand, matchLen)
			// Seed the table inside the match so long runs stay findable.
			end := i + matchLen
			for j := i + 1; j < end && j+minMatch <= n; j += 2 {
				table[hash4(binary.LittleEndian.Uint32(src[j:]))] = int32(j + 1)
			}
			i = end
			litStart = i
			misses = 0
			continue
		}
		misses++
		i += 1 + misses>>skipTrigger
	}
	// Trailing literals, marked by a token with no match.
	lits := src[litStart:]
	dst = appendToken(dst, len(lits), 0)
	dst = append(dst, lits...)
	return dst, probes
}

// extendMatch returns the length of the match at i against cand < i, whose
// first minMatch bytes are known equal: 8 bytes per compare while 8 remain,
// then byte by byte to the first difference or the end of src.
func extendMatch(src []byte, cand, i int) int {
	m := minMatch
	for i+m+8 <= len(src) {
		if x := binary.LittleEndian.Uint64(src[i+m:]) ^ binary.LittleEndian.Uint64(src[cand+m:]); x != 0 {
			return m + bits.TrailingZeros64(x)>>3
		}
		m += 8
	}
	for i+m < len(src) && src[cand+m] == src[i+m] {
		m++
	}
	return m
}

// appendSequence emits literals followed by a match of matchLen at the given
// back-reference offset.
func appendSequence(dst, lits []byte, offset, matchLen int) []byte {
	dst = appendToken(dst, len(lits), matchLen-minMatch+1)
	dst = append(dst, lits...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(offset))
	return dst
}

// appendToken writes the token byte plus any length-extension bytes. The
// match nibble carries matchCode (0 = stream end, otherwise matchLen-minMatch+1).
func appendToken(dst []byte, litLen, matchCode int) []byte {
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
		dst = appendExtLen(dst, litLen-15)
	}
	if mc == 15 {
		dst = appendExtLen(dst, matchCode-15)
	}
	return dst
}

func appendExtLen(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 0xff)
		v -= 255
	}
	return append(dst, byte(v))
}

// Decompress appends the decompressed contents of the frame at src to dst
// and returns the extended slice plus the number of frame bytes consumed.
// Corrupt input yields an error, never a panic or out-of-bounds read.
func Decompress(dst, src []byte) ([]byte, int, error) {
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
		// The header says how long the output is: one allocation up front,
		// and the decoder writes into it by index.
		base := len(dst)
		out := dst
		if cap(out)-base < int(origLen) {
			out = append(make([]byte, 0, base+int(origLen)), dst...)
		}
		out = out[:base+int(origLen)]
		consumed, err := decodeLZ(out[base:], src[pos:])
		if err != nil {
			return dst, 0, err
		}
		return out, pos + consumed, nil
	default:
		return dst, 0, ErrCorrupt
	}
}

// decodeLZ decodes the LZ payload at the front of src into out, which is
// exactly the frame's original length, and returns the payload bytes
// consumed. A stream that ends short of len(out), runs past it, or reads
// outside src or behind the start of out is ErrCorrupt.
func decodeLZ(out, src []byte) (int, error) {
	d := 0 // bytes of out written
	i := 0
	for {
		if i >= len(src) {
			return 0, ErrCorrupt
		}
		token := src[i]
		i++
		litLen := int(token >> 4)
		matchCode := int(token & 0xf)
		if litLen == 15 {
			ext, n, err := readExtLen(src[i:])
			if err != nil {
				return 0, err
			}
			litLen += ext
			i += n
		}
		if matchCode == 15 {
			ext, n, err := readExtLen(src[i:])
			if err != nil {
				return 0, err
			}
			matchCode += ext
			i += n
		}
		if i+litLen > len(src) || d+litLen > len(out) {
			return 0, ErrCorrupt
		}
		d += copy(out[d:], src[i:i+litLen])
		i += litLen
		if matchCode == 0 {
			// Stream end: it must have filled the output exactly.
			if d != len(out) {
				return 0, ErrCorrupt
			}
			return i, nil
		}
		if i+2 > len(src) {
			return 0, ErrCorrupt
		}
		offset := int(binary.LittleEndian.Uint16(src[i:]))
		i += 2
		matchLen := matchCode + minMatch - 1
		from := d - offset
		if offset == 0 || from < 0 || d+matchLen > len(out) {
			return 0, ErrCorrupt
		}
		// out[from:d] is written output. A match no longer than offset is
		// one copy of it; a longer one overlaps its own output (a run), and
		// as each copy repeats whole periods the next may take twice as many.
		end := d + matchLen
		for d < end {
			d += copy(out[d:end], out[from:d])
		}
	}
}

func readExtLen(src []byte) (int, int, error) {
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
