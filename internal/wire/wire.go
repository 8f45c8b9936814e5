// Package wire defines the block-device network protocol the repository
// uses in place of iSCSI/FibreChannel (§3 of the paper: volumes are exposed
// over standard networks; clients treat the two controllers' ports
// interchangeably). Integers are little-endian; strings and byte blobs are
// length-prefixed.
//
// There is one frame, in both directions:
//
//	u32 length | op byte | u32 tag | payload
//
// and one response payload: status byte, then the result on StatusOK or a
// u32 error code and a message on StatusErr. A connection may have many
// requests in flight and responses complete out of order, matched to
// requests by tag — the shape of real block front ends (iSCSI task tags,
// NVMe-oF command IDs).
//
// The first frame of a connection must be an OpHello at version ProtoTagged
// or later, sent like any other request (by convention with tag 0) and
// answered like any other request. A server closes a connection whose first
// frame is anything else without replying or dispatching it. That includes
// the untagged lock-step framing this protocol replaced ("v1": u32 length |
// op | payload, one request in flight); no v1 initiator exists in or out of
// this tree, and its frames either fail ReadTaggedFrame or fail the hello
// check.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Opcodes.
const (
	OpCreateVolume byte = 1
	OpOpenVolume   byte = 2
	OpListVolumes  byte = 3
	OpRead         byte = 4
	OpWrite        byte = 5
	OpSnapshot     byte = 6
	OpClone        byte = 7
	OpDelete       byte = 8
	OpStats        byte = 9
	OpFlush        byte = 10
	OpGC           byte = 11
	// OpHello opens a connection: the mandatory first frame, with a u64
	// version payload; the server responds with the version it accepted.
	//
	// An HA initiator appends a second u64 to the hello payload: a session
	// ID to resume (0 asks the server to open a fresh session). The server
	// mirrors the shape — accepted version, then the session ID it bound the
	// connection to. An initiator that wants no session omits the field.
	OpHello byte = 12
	// OpWriteIdem is an idempotent write: the payload carries a
	// session-scoped sequence number ahead of the usual vol/off/data. The server records each completed (session, seq) in a
	// bounded window; a replay of a completed seq returns the recorded
	// outcome instead of applying the write twice. This is what lets a
	// client resend a write after an ambiguous failure (connection died
	// between request and response) without risking double application.
	OpWriteIdem byte = 13
)

// ProtoTagged is the protocol version carried in OpHello: tagged frames,
// pipelined requests, out-of-order completion. Version 1 was the untagged
// lock-step protocol; a hello below ProtoTagged is refused.
const ProtoTagged uint64 = 2

// Response status.
const (
	StatusOK  byte = 0
	StatusErr byte = 1
)

// Error codes carried in error responses, so initiators can react
// structurally instead of parsing message text.
const (
	CodeInternal     uint32 = 0 // engine/controller error; msg has detail
	CodeBadPayload   uint32 = 1 // request payload failed to decode
	CodeTooLarge     uint32 = 2 // request or requested response exceeds frame bounds
	CodeDuplicateTag uint32 = 3 // tag already in flight on this connection
	CodeUnknownOp    uint32 = 4 // opcode not recognized
	// CodeNotPrimary fences a demoted controller: the request reached a
	// server whose controller no longer owns the array (a failover moved
	// ownership away). The op was NOT applied; the initiator should
	// re-resolve to the surviving controller and resend there.
	CodeNotPrimary uint32 = 5
	// CodeRetryable is a transient server-side condition (failover in
	// progress, drain under way): the op was NOT applied; the initiator
	// should back off and retry, on this or another controller.
	CodeRetryable uint32 = 6
)

// RetryableCode reports whether a structured error code describes a
// transient condition where the request was definitively NOT applied, so an
// initiator may safely resend it (after re-resolving for CodeNotPrimary).
func RetryableCode(code uint32) bool {
	return code == CodeNotPrimary || code == CodeRetryable
}

// MaxFrame bounds a frame's payload; large I/O is split by the client.
const MaxFrame = 16 << 20

// MaxReadLen bounds a single OpRead's requested byte count so the response
// (status byte, optional error code, length prefix, data, plus op/tag
// framing) always fits in MaxFrame. Servers MUST clamp client-supplied read
// lengths against this before allocating: the length field is attacker
// controlled and would otherwise size an arbitrary allocation.
const MaxReadLen = MaxFrame - 64

// ErrFrameTooLarge is returned for oversized frames.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// ErrBadFrame is returned for structurally invalid frames: a zero-length
// frame (no opcode), or a tagged frame too short to carry its tag.
var ErrBadFrame = errors.New("wire: malformed frame")

// WriteTaggedFrame sends one frame: u32 length, opcode byte, u32 tag,
// payload. The frame is assembled into a single buffer and issued as ONE
// Write so that two goroutines sharing a serialized io.Writer can never
// interleave a header with another frame's payload. (Callers still must not
// call it concurrently on the same writer unless the writer itself is atomic
// per call — net.Conn is not — but a single Write keeps the failure mode
// "torn between frames", never "torn inside a frame".)
func WriteTaggedFrame(w io.Writer, op byte, tag uint32, payload []byte) error {
	if len(payload)+5 > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 9+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)+5))
	buf[4] = op
	binary.LittleEndian.PutUint32(buf[5:9], tag)
	copy(buf[9:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadTaggedFrame receives one frame.
func ReadTaggedFrame(r io.Reader) (byte, uint32, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return 0, 0, nil, ErrFrameTooLarge
	}
	if n < 5 {
		return 0, 0, nil, ErrBadFrame
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	return body[0], binary.LittleEndian.Uint32(body[1:5]), body[5:], nil
}

// Enc builds payloads.
type Enc struct{ B []byte }

// U64 appends an unsigned integer.
func (e *Enc) U64(v uint64) *Enc {
	e.B = binary.LittleEndian.AppendUint64(e.B, v)
	return e
}

// U32 appends a 32-bit unsigned integer.
func (e *Enc) U32(v uint32) *Enc {
	e.B = binary.LittleEndian.AppendUint32(e.B, v)
	return e
}

// Bytes appends a length-prefixed blob.
func (e *Enc) Bytes(b []byte) *Enc {
	e.B = binary.LittleEndian.AppendUint32(e.B, uint32(len(b)))
	e.B = append(e.B, b...)
	return e
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) *Enc { return e.Bytes([]byte(s)) }

// Dec parses payloads.
//
// Aliasing contract: Bytes (and anything built on it) returns a sub-slice
// of d.B — it does NOT copy. The returned slice is only valid while the
// frame buffer it came from is; a consumer that retains the data past the
// request's dispatch, hands it to another goroutine, or lives above a
// buffer-pooling transport MUST copy at the boundary where the frame's
// lifetime ends (Str is safe: string conversion copies).
type Dec struct {
	B   []byte
	Err error
}

// U64 reads an unsigned integer.
func (d *Dec) U64() uint64 {
	if d.Err != nil {
		return 0
	}
	if len(d.B) < 8 {
		d.Err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(d.B)
	d.B = d.B[8:]
	return v
}

// U32 reads a 32-bit unsigned integer.
func (d *Dec) U32() uint32 {
	if d.Err != nil {
		return 0
	}
	if len(d.B) < 4 {
		d.Err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint32(d.B)
	d.B = d.B[4:]
	return v
}

// Bytes reads a length-prefixed blob. The result aliases the frame buffer
// (see the type comment); copy before retaining.
func (d *Dec) Bytes() []byte {
	if d.Err != nil {
		return nil
	}
	if len(d.B) < 4 {
		d.Err = io.ErrUnexpectedEOF
		return nil
	}
	n := binary.LittleEndian.Uint32(d.B)
	d.B = d.B[4:]
	if uint32(len(d.B)) < n {
		d.Err = io.ErrUnexpectedEOF
		return nil
	}
	out := d.B[:n]
	d.B = d.B[n:]
	return out
}

// Str reads a length-prefixed string (copies; safe to retain).
func (d *Dec) Str() string { return string(d.Bytes()) }

// OK reports whether the payload decoded fully and cleanly.
func (d *Dec) OK() bool { return d.Err == nil }

// RemoteError is a structured server-side failure from a response: a
// machine-readable code plus the human message.
type RemoteError struct {
	Code uint32
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("server: %s (code %d)", e.Msg, e.Code)
}

// OKResponse builds a success response payload.
func OKResponse(payload []byte) []byte {
	return append([]byte{StatusOK}, payload...)
}

// ErrResponse builds an error response payload: status byte, u32 error
// code, length-prefixed message.
func ErrResponse(code uint32, msg string) []byte {
	var e Enc
	e.B = append(e.B, StatusErr)
	e.U32(code).Str(msg)
	return e.B
}

// Hello is a decoded OpHello payload (either direction). Session is the
// optional second u64: for requests, the session to resume (0 = open a new
// one); for responses, the session the server bound. HasSession records
// whether the field was present at all: a session-less hello is 8 bytes, a
// session-bearing one 16.
type Hello struct {
	Version    uint64
	Session    uint64
	HasSession bool
}

// EncodeHello renders a hello payload: 8 bytes when hasSession is false,
// the session-bearing 16 otherwise.
func EncodeHello(version uint64, session uint64, hasSession bool) []byte {
	var e Enc
	e.U64(version)
	if hasSession {
		e.U64(session)
	}
	return e.B
}

// DecodeHello parses a hello payload of either length. Trailing bytes
// beyond the known fields are ignored (future extension room).
func DecodeHello(payload []byte) (Hello, error) {
	d := Dec{B: payload}
	h := Hello{Version: d.U64()}
	if d.Err != nil {
		return Hello{}, d.Err
	}
	if len(d.B) >= 8 {
		h.Session = d.U64()
		h.HasSession = d.Err == nil
	}
	return h, nil
}

// ParseTaggedResponse splits a response into payload or a *RemoteError
// carrying the structured code.
func ParseTaggedResponse(payload []byte) ([]byte, error) {
	if len(payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	switch payload[0] {
	case StatusOK:
		return payload[1:], nil
	case StatusErr:
		d := Dec{B: payload[1:]}
		code := d.U32()
		msg := d.Str()
		if !d.OK() {
			return nil, d.Err
		}
		return nil, &RemoteError{Code: code, Msg: msg}
	default:
		return nil, fmt.Errorf("wire: bad status %d", payload[0])
	}
}
