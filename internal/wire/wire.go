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
//
// There is one header encoder, AppendHeader, and one frame parser,
// readHeader then readPayload. A connection's frames move through Conn,
// whose every read and write arms its own deadline: it reads through a
// buffered reader, so one read from the socket drains every frame that has
// arrived, and writes a batch of headers and uncopied payloads as one
// vectored write. WriteTaggedFrame and ReadTaggedFrame are the same codec
// over any io.Writer or io.Reader, for frames held in buffers (probes,
// fuzzing, tests). Nothing here makes concurrent writes to one connection
// safe: frames stay whole because one goroutine (the server's writer) or
// one mutex that condemns the connection on a partial write (the
// client's) owns its write side.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Both ends of a connection read through a buffered reader of ReadBufSize
// bytes: a burst of 4 KiB requests or responses arrives in one socket
// read, and a payload at least this large, met with the buffer empty, is
// read straight into its own buffer.
const ReadBufSize = 64 << 10

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

// HeaderLen is the size of a frame header: u32 length, opcode byte, u32
// tag. The length counts the opcode, the tag and the payload.
const HeaderLen = 9

// AppendHeader appends the header of a frame carrying an n-byte payload to
// dst. It refuses a frame larger than MaxFrame, returning dst unchanged.
func AppendHeader(dst []byte, op byte, tag uint32, n int) ([]byte, error) {
	if n < 0 || n > MaxFrame-5 {
		return dst, ErrFrameTooLarge
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n+5))
	dst = append(dst, op)
	return binary.LittleEndian.AppendUint32(dst, tag), nil
}

// readHeader reads one frame header from r into hdr, the caller's scratch,
// and returns the opcode, the tag and the length of the payload that
// follows, which the caller reads with readPayload before the next header.
// A stream that ends cleanly before the header returns io.EOF; a forged
// length is refused (ErrFrameTooLarge, ErrBadFrame) before any payload
// byte is read or any buffer sized by it.
func readHeader(r io.Reader, hdr *[HeaderLen]byte) (op byte, tag uint32, n int, err error) {
	if _, err = io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, 0, err
	}
	size := binary.LittleEndian.Uint32(hdr[:4])
	if size > MaxFrame {
		return 0, 0, 0, ErrFrameTooLarge
	}
	if size < 5 {
		return 0, 0, 0, ErrBadFrame
	}
	if _, err = io.ReadFull(r, hdr[4:]); err != nil {
		return 0, 0, 0, err
	}
	ioSync.Load() // see ioSync
	return hdr[4], binary.LittleEndian.Uint32(hdr[5:]), int(size) - 5, nil
}

// readPayload reads the payload readHeader announced into p, which must be
// exactly that long. A stream that ends inside it is io.ErrUnexpectedEOF.
func readPayload(r io.Reader, p []byte) error {
	_, err := io.ReadFull(r, p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// ioSync hands the race detector the ordering a socket carries. The
// detector orders a write(2) before the read(2) that receives its bytes
// (package syscall annotates both) but knows nothing of writev(2), which
// is how Conn.WriteBuffers sends. So WriteBuffers releases through ioSync
// before it writes and readHeader acquires after it reads, as
// syscall.Write and syscall.Read do; without the edge, a test that swaps a server hook
// between two exchanges on one connection reports a race the socket rules
// out. Outside the detector it is one atomic add per vectored write and
// one load per frame.
var ioSync atomic.Uint64

// WriteTaggedFrame sends one frame: u32 length, opcode byte, u32 tag,
// payload, assembled into one buffer and issued as ONE Write — the
// convenience for a single frame (Conn.WriteFrame, probes, tests). A
// connection's steady traffic goes out as vectored batches built with
// AppendHeader instead (package comment).
func WriteTaggedFrame(w io.Writer, op byte, tag uint32, payload []byte) error {
	var hdr [HeaderLen]byte
	if _, err := AppendHeader(hdr[:0], op, tag, len(payload)); err != nil {
		return err
	}
	frame := make([]byte, 0, HeaderLen+len(payload))
	_, err := w.Write(append(append(frame, hdr[:]...), payload...))
	return err
}

// ReadTaggedFrame receives one frame, its payload in a buffer of its own.
// It reads nothing past the frame.
func ReadTaggedFrame(r io.Reader) (byte, uint32, []byte, error) {
	var hdr [HeaderLen]byte
	return readFrame(r, &hdr)
}

// readFrame reads one frame, its header into hdr and its payload into a
// buffer of its own.
func readFrame(r io.Reader, hdr *[HeaderLen]byte) (byte, uint32, []byte, error) {
	op, tag, n, err := readHeader(r, hdr)
	if err != nil {
		return 0, 0, nil, err
	}
	payload := make([]byte, n)
	if err := readPayload(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return op, tag, payload, nil
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
// frame buffer it came from is. The server's request bodies come from a
// pool: a body is valid until its request's release, which runs after the
// response is written, so dispatch may hand a decoded slice to the engine
// (core.Array.WriteAt keeps nothing of it past return) but anything that
// retains data beyond the request MUST copy it (Str is safe: string
// conversion copies).
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
