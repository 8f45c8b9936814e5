package wire

// Native fuzz targets for the one codec. The f.Add seeds are the negative
// tests' vectors, so each target also runs as a plain test under `go test`.

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzTaggedFrame: on any bytes ReadTaggedFrame never panics, never returns
// a payload beyond MaxFrame, and whatever it accepts re-encodes through
// WriteTaggedFrame to exactly the bytes it consumed.
func FuzzTaggedFrame(f *testing.F) {
	var whole bytes.Buffer
	if err := WriteTaggedFrame(&whole, OpWrite, 0xdeadbeef, []byte("tagged payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes())
	f.Add(whole.Bytes()[:whole.Len()-3])           // truncated body
	f.Add([]byte{})                                // clean EOF
	f.Add([]byte{0xab, 0xcd, 0xef})                // truncated header
	f.Add([]byte{0, 0, 0, 0})                      // zero-length frame
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4})          // too short for op + tag
	f.Add([]byte{5, 0, 0, 0, OpFlush, 7, 0, 0, 0}) // empty payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})          // forged 4 GiB header
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame+1))
	f.Add([]byte{1, 0, 0, 0, OpListVolumes}) // an untagged v1 frame

	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		op, tag, payload, err := ReadTaggedFrame(r)
		if err != nil {
			if payload != nil {
				t.Fatalf("payload returned alongside error %v", err)
			}
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("payload of %d bytes exceeds MaxFrame", len(payload))
		}
		var out bytes.Buffer
		if err := WriteTaggedFrame(&out, op, tag, payload); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if consumed := in[:len(in)-r.Len()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoded %x, consumed %x", out.Bytes(), consumed)
		}
	})
}

// FuzzDecodeHello: no panic; fewer than 8 bytes is an error, and the session
// field is present exactly when 8 more bytes follow the version.
func FuzzDecodeHello(f *testing.F) {
	f.Add(EncodeHello(ProtoTagged, 0, false))
	f.Add(EncodeHello(ProtoTagged, 42, true))
	f.Add(EncodeHello(1, 0, false))
	f.Add(append(EncodeHello(ProtoTagged, 0, false), 0xde, 0xad)) // short tail
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		h, err := DecodeHello(in)
		if (err != nil) != (len(in) < 8) {
			t.Fatalf("%d-byte hello: err = %v", len(in), err)
		}
		if err != nil {
			if h != (Hello{}) {
				t.Fatalf("failed decode returned %+v", h)
			}
			return
		}
		if h.HasSession != (len(in) >= 16) {
			t.Fatalf("%d-byte hello: HasSession = %v", len(in), h.HasSession)
		}
		if want := EncodeHello(h.Version, h.Session, h.HasSession); !bytes.Equal(want, in[:len(want)]) {
			t.Fatalf("decoded %+v from %x", h, in)
		}
	})
}

// FuzzDec drives every Dec reader over arbitrary bytes in a fuzzer-chosen
// order: no panic, results alias the input, and once input runs short Err is
// io.ErrUnexpectedEOF and stays set with zero values from then on.
func FuzzDec(f *testing.F) {
	var e Enc
	e.U64(42).Str("volume-name").Bytes([]byte{1, 2, 3}).U32(7)
	f.Add(e.B, []byte{0, 2, 2, 1})
	f.Add(e.B[:len(e.B)-2], []byte{0, 2, 2, 1}) // over-read at the end
	var blob Enc
	blob.Bytes(make([]byte, 100))
	f.Add(blob.B[:50], []byte{2})                    // truncated blob
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{2}) // 4 GiB length prefix, no data
	f.Add([]byte{1, 2}, []byte{0, 0})                // sticky error

	f.Fuzz(func(t *testing.T, in, ops []byte) {
		d := Dec{B: in}
		for _, op := range ops {
			failed := d.Err != nil
			before := len(d.B)
			var zero bool
			switch op % 3 {
			case 0:
				zero = d.U64() == 0
			case 1:
				zero = d.U32() == 0
			case 2:
				b := d.Bytes()
				zero = b == nil
				if len(b) > before {
					t.Fatalf("Bytes returned %d bytes from %d remaining", len(b), before)
				}
			}
			if d.Err != nil && d.Err != io.ErrUnexpectedEOF {
				t.Fatalf("Err = %v", d.Err)
			}
			if failed && (d.Err == nil || !zero || len(d.B) != before) {
				t.Fatalf("error not sticky: Err=%v zero=%v consumed=%d", d.Err, zero, before-len(d.B))
			}
			if d.Err != nil && !zero {
				t.Fatal("nonzero value alongside Err")
			}
			if d.OK() != (d.Err == nil) {
				t.Fatal("OK disagrees with Err")
			}
		}
	})
}
