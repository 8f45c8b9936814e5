package wire

import (
	"bytes"
	"testing"
)

// The session field rides optionally on OpHello in both directions; both
// payload lengths must round-trip, and an 8-byte hello must decode as "no
// session field".
func TestHelloEncodeDecode(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want Hello
	}{
		{"no-session", EncodeHello(ProtoTagged, 0, false), Hello{Version: ProtoTagged}},
		{"new-session", EncodeHello(ProtoTagged, 0, true), Hello{Version: ProtoTagged, Session: 0, HasSession: true}},
		{"resume", EncodeHello(ProtoTagged, 42, true), Hello{Version: ProtoTagged, Session: 42, HasSession: true}},
	}
	for _, c := range cases {
		got, err := DecodeHello(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Fatalf("%s: got %+v want %+v", c.name, got, c.want)
		}
	}
	if bare := EncodeHello(ProtoTagged, 0, false); len(bare) != 8 {
		t.Fatalf("session-less hello = %d bytes", len(bare))
	}
	if withSess := EncodeHello(ProtoTagged, 7, true); len(withSess) != 16 {
		t.Fatalf("session hello = %d bytes", len(withSess))
	}
}

func TestHelloDecodeTruncated(t *testing.T) {
	if _, err := DecodeHello([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated hello decoded")
	}
	// 8 bytes + garbage tail under 8 bytes: version decodes, session absent.
	b := append(EncodeHello(ProtoTagged, 0, false), 0xde, 0xad)
	h, err := DecodeHello(b)
	if err != nil || h.HasSession {
		t.Fatalf("hello with short tail: %+v, %v", h, err)
	}
}

func TestRetryableCode(t *testing.T) {
	for _, code := range []uint32{CodeNotPrimary, CodeRetryable} {
		if !RetryableCode(code) {
			t.Fatalf("code %d not retryable", code)
		}
	}
	for _, code := range []uint32{CodeInternal, CodeBadPayload, CodeTooLarge, CodeDuplicateTag, CodeUnknownOp} {
		if RetryableCode(code) {
			t.Fatalf("code %d wrongly retryable", code)
		}
	}
}

// An idempotent-write payload is the plain write payload with the seq in
// front; spot-check the framing survives the frame round trip.
func TestWriteIdemFraming(t *testing.T) {
	var e Enc
	e.U64(9).U64(3).U64(4096).Bytes([]byte("abc"))
	var buf bytes.Buffer
	if err := WriteTaggedFrame(&buf, OpWriteIdem, 17, e.B); err != nil {
		t.Fatal(err)
	}
	op, tag, payload, err := ReadTaggedFrame(&buf)
	if err != nil || op != OpWriteIdem || tag != 17 {
		t.Fatalf("op=%d tag=%d err=%v", op, tag, err)
	}
	d := Dec{B: payload}
	if seq, vol, off := d.U64(), d.U64(), d.U64(); seq != 9 || vol != 3 || off != 4096 {
		t.Fatalf("seq=%d vol=%d off=%d", seq, vol, off)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte("abc")) || !d.OK() {
		t.Fatalf("data = %q", got)
	}
}
