package wire

// Negative and adversarial framing tests: every way a frame can be
// malformed must produce a typed error, never a panic, a giant allocation,
// or a silent resync.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestTaggedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("tagged payload")
	if err := WriteTaggedFrame(&buf, OpWrite, 0xdeadbeef, payload); err != nil {
		t.Fatal(err)
	}
	op, tag, got, err := ReadTaggedFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if op != OpWrite || tag != 0xdeadbeef || !bytes.Equal(got, payload) {
		t.Fatalf("op=%d tag=%x payload=%q", op, tag, got)
	}

	// Empty payload is legal: the frame is just op + tag.
	buf.Reset()
	if err := WriteTaggedFrame(&buf, OpFlush, 7, nil); err != nil {
		t.Fatal(err)
	}
	op, tag, got, err = ReadTaggedFrame(&buf)
	if err != nil || op != OpFlush || tag != 7 || len(got) != 0 {
		t.Fatalf("op=%d tag=%d payload=%q err=%v", op, tag, got, err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		r := bytes.NewReader([]byte{0xab, 0xcd, 0xef}[:n])
		if _, _, _, err := ReadTaggedFrame(r); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d-byte header: err = %v", n, err)
		}
	}
	// Zero bytes: clean EOF, distinguishable from a torn frame.
	if _, _, _, err := ReadTaggedFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err = %v", err)
	}
}

func TestTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTaggedFrame(&buf, OpRead, 1, []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 5; cut < len(full); cut += 3 {
		if _, _, _, err := ReadTaggedFrame(bytes.NewReader(full[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v", cut, err)
		}
	}
}

func TestZeroLengthFrame(t *testing.T) {
	// A frame needs at least op + tag (5 bytes).
	for n := uint32(0); n < 5; n++ {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], n)
		frame := append(b[:], make([]byte, n)...)
		if _, _, _, err := ReadTaggedFrame(bytes.NewReader(frame)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%d-byte frame: err = %v", n, err)
		}
	}
}

func TestOversizedFrames(t *testing.T) {
	// Forged headers beyond MaxFrame are rejected before any allocation.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, _, _, err := ReadTaggedFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("oversized frame accepted")
	}
	// Writers refuse to build them in the first place.
	if err := WriteTaggedFrame(io.Discard, OpWrite, 1, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("oversized write accepted")
	}
}

func TestWriteFrameSingleWrite(t *testing.T) {
	// Frames must land in exactly one Write call: the server's writer
	// serializes per-frame, so a two-Write frame could interleave with a
	// concurrent frame on the same connection.
	cw := &countingWriter{}
	if err := WriteTaggedFrame(cw, OpRead, 3, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if cw.calls != 1 {
		t.Fatalf("frame took %d Write calls, want 1", cw.calls)
	}
}

type countingWriter struct{ calls int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	return len(p), nil
}

func TestTaggedResponses(t *testing.T) {
	// Success round trip.
	got, err := ParseTaggedResponse(OKResponse([]byte("data")))
	if err != nil || string(got) != "data" {
		t.Fatalf("ok response: %q, %v", got, err)
	}
	// Structured error round trip.
	_, err = ParseTaggedResponse(ErrResponse(CodeTooLarge, "read too big"))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeTooLarge || re.Msg != "read too big" {
		t.Fatalf("error response: %v", err)
	}
	// Bad status byte.
	if _, err := ParseTaggedResponse([]byte{9}); err == nil {
		t.Fatal("bad status accepted")
	}
	// Empty and truncated responses.
	if _, err := ParseTaggedResponse(nil); err == nil {
		t.Fatal("empty response accepted")
	}
	if _, err := ParseTaggedResponse([]byte{StatusErr, 1, 2}); err == nil {
		t.Fatal("truncated error response accepted")
	}
}
