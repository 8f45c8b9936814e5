package wire

import (
	"bytes"
	"testing"
)

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U64(42).Str("volume-name").Bytes([]byte{1, 2, 3}).U64(7)
	d := Dec{B: e.B}
	if d.U64() != 42 || d.Str() != "volume-name" {
		t.Fatal("scalar round trip failed")
	}
	if !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) || d.U64() != 7 {
		t.Fatal("blob round trip failed")
	}
	if !d.OK() {
		t.Fatal(d.Err)
	}
	// Over-reading sets Err and returns zero values, never panics.
	if d.U64() != 0 || d.OK() {
		t.Fatal("over-read not detected")
	}
}

func TestDecTruncatedBlob(t *testing.T) {
	var e Enc
	e.Bytes(make([]byte, 100))
	d := Dec{B: e.B[:50]}
	if d.Bytes() != nil || d.OK() {
		t.Fatal("truncated blob accepted")
	}
}
