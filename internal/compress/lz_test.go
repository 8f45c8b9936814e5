package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"purity/internal/sim"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	frame := Compress(nil, src)
	if len(frame) > MaxCompressedLen(len(src)) {
		t.Fatalf("frame %d bytes exceeds bound %d", len(frame), MaxCompressedLen(len(src)))
	}
	got, consumed, err := Decompress(nil, frame)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if consumed != len(frame) {
		t.Fatalf("consumed %d of %d frame bytes", consumed, len(frame))
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(src))
	}
	return frame
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil)
	roundTrip(t, []byte{})
}

func TestRoundTripSmall(t *testing.T) {
	roundTrip(t, []byte("a"))
	roundTrip(t, []byte("abc"))
	roundTrip(t, []byte("hello world hello world hello world"))
}

func TestRoundTripZeros(t *testing.T) {
	src := make([]byte, 32<<10)
	frame := roundTrip(t, src)
	if len(frame) > len(src)/50 {
		t.Fatalf("zeros compressed to %d bytes, want < %d", len(frame), len(src)/50)
	}
}

func TestRoundTripRandomIncompressible(t *testing.T) {
	src := make([]byte, 32<<10)
	sim.NewRand(1).Bytes(src)
	frame := roundTrip(t, src)
	overhead := len(frame) - len(src)
	if overhead > 8 {
		t.Fatalf("incompressible data grew by %d bytes, want raw escape", overhead)
	}
}

func TestRoundTripRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 500)
	frame := roundTrip(t, src)
	if r := float64(len(src)) / float64(len(frame)); r < 10 {
		t.Fatalf("repetitive text ratio %.1f, want > 10", r)
	}
}

func TestRoundTripDatabasePageLike(t *testing.T) {
	// Structured records with shared prefixes, like the RDBMS pages the
	// paper reports compressing 3-8x (with dedup included).
	var src []byte
	for i := 0; i < 400; i++ {
		src = append(src, fmt.Sprintf("row|%08d|status=ACTIVE|region=us-west-2|balance=%06d|", i, i*37%100000)...)
	}
	frame := roundTrip(t, src)
	if r := float64(len(src)) / float64(len(frame)); r < 3 {
		t.Fatalf("structured data ratio %.1f, want > 3", r)
	}
}

func TestRoundTripLongLiteralRuns(t *testing.T) {
	// Forces literal-length extension bytes (> 15 literals, > 270, ...).
	r := sim.NewRand(2)
	for _, n := range []int{16, 255, 256, 270, 271, 1000} {
		src := make([]byte, n)
		r.Bytes(src)
		roundTrip(t, src)
	}
}

func TestRoundTripLongMatches(t *testing.T) {
	// Forces match-length extension bytes.
	for _, n := range []int{20, 100, 300, 5000} {
		src := append([]byte("seed-block-0123456789abcdef"), bytes.Repeat([]byte{0x42}, n)...)
		roundTrip(t, src)
	}
}

func TestRoundTripOverlappingMatch(t *testing.T) {
	// "abcabcabc..." decodes via a match that overlaps its own output.
	src := bytes.Repeat([]byte("abc"), 1000)
	roundTrip(t, src)
	src = bytes.Repeat([]byte{0xaa}, 100)
	roundTrip(t, src)
}

func TestRoundTripFarOffsets(t *testing.T) {
	// A duplicate beyond the 64 KiB window must NOT be matched; one inside
	// must round trip either way.
	chunk := make([]byte, 40<<10)
	sim.NewRand(3).Bytes(chunk)
	src := append(bytes.Clone(chunk), chunk...) // duplicate at 40 KiB: in window
	roundTrip(t, src)

	far := make([]byte, 70<<10)
	sim.NewRand(4).Bytes(far)
	src = append(bytes.Clone(chunk), far...)
	src = append(src, chunk...) // duplicate at 110 KiB: out of window
	roundTrip(t, src)
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16, mode uint8) bool {
		r := sim.NewRand(seed)
		src := make([]byte, int(n))
		switch mode % 3 {
		case 0:
			r.Bytes(src)
		case 1: // runs
			for i := range src {
				src[i] = byte(i / 17)
			}
		case 2: // sparse
			for i := 0; i < len(src); i += 37 {
				src[i] = byte(r.Uint64())
			}
		}
		frame := Compress(nil, src)
		got, _, err := Decompress(nil, frame)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	src := []byte("payload payload payload")
	frame := Compress([]byte("prefix-frame-"), src)
	// Frame bytes start after the prefix.
	got, _, err := Decompress([]byte("existing|"), frame[len("prefix-frame-"):])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "existing|"+string(src) {
		t.Fatalf("got %q", got)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	src := bytes.Repeat([]byte("data data data "), 100)
	frame := Compress(nil, src)
	cases := [][]byte{
		nil,
		{},
		{0x01},
		{0x99, 0x05, 1, 2, 3, 4, 5},    // unknown method
		frame[:len(frame)/2],           // truncated
		append([]byte{}, frame[:3]...), // header only
	}
	// Bit flips anywhere must never panic or over-read; the frame format has
	// no checksum of its own (integrity is the segment layer's job), so a
	// flipped payload byte may decode "successfully" to different data — but
	// the output length must still match the header.
	for i := 0; i < len(frame); i += 3 {
		c := bytes.Clone(frame)
		c[i] ^= 0x80
		cases = append(cases, c)
	}
	for i, c := range cases {
		got, _, err := Decompress(nil, c)
		if err == nil {
			want, n := binary.Uvarint(c[1:])
			if n <= 0 || uint64(len(got)) != want {
				t.Errorf("case %d: decoded length %d disagrees with header", i, len(got))
			}
		}
	}
}

func TestDecompressBadBackReference(t *testing.T) {
	// Hand-built frame with an offset pointing before the start of output.
	frame := []byte{methodLZ, 10, 0x01, 0x10, 0x00} // 0 literals, match, offset 16
	if _, _, err := Decompress(nil, frame); err == nil {
		t.Fatal("back reference before start of output accepted")
	}
	// Offset zero is also invalid.
	frame = []byte{methodLZ, 10, 0x01, 0x00, 0x00}
	if _, _, err := Decompress(nil, frame); err == nil {
		t.Fatal("zero offset accepted")
	}
}

func TestDecompressLengthMismatch(t *testing.T) {
	src := []byte("some content that compresses somewhat some content")
	frame := Compress(nil, src)
	// Lie about the original length.
	frame[1] = byte(len(src) + 1)
	if _, _, err := Decompress(nil, frame); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCompressAppendsToDst(t *testing.T) {
	src := []byte("abc")
	out := Compress([]byte("keep"), src)
	if !bytes.HasPrefix(out, []byte("keep")) {
		t.Fatal("Compress clobbered dst prefix")
	}
}

func BenchmarkCompress32KiBRandom(b *testing.B) {
	src := make([]byte, 32<<10)
	sim.NewRand(1).Bytes(src)
	b.SetBytes(int64(len(src)))
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst = Compress(dst[:0], src)
	}
}

// classSizes are the cblock sizes the benchmark's traffic packs: 8 KiB is
// readmiss's cblock, 32 KiB ingest's and vdi-mixed's.
var classSizes = []struct {
	name string
	n    int
}{
	{"8KiB", 8 << 10},
	{"32KiB", 32 << 10},
}

// BenchmarkCompressClass packs the benchmark's two content classes at the
// two cblock sizes its workloads write, and reports the match search's hash
// probes per input byte and the compression ratio beside the time.
func BenchmarkCompressClass(b *testing.B) {
	for _, c := range contentClasses {
		for _, sz := range classSizes {
			src := renderClass(c.noiseWords, sz.n, 1, 7)
			b.Run(c.name+"/"+sz.name, func(b *testing.B) {
				b.SetBytes(int64(len(src)))
				dst := make([]byte, 0, MaxCompressedLen(len(src)))
				for i := 0; i < b.N; i++ {
					dst = Compress(dst[:0], src)
				}
				b.StopTimer()
				_, probes := appendLZ(nil, src)
				b.ReportMetric(float64(probes)/float64(len(src)), "probes/B")
				b.ReportMetric(float64(len(src))/float64(len(dst)), "ratio")
			})
		}
	}
}

// BenchmarkDecompressClass decodes the frames BenchmarkCompressClass packs,
// into a fresh buffer each time as cblock.Unpack does.
func BenchmarkDecompressClass(b *testing.B) {
	for _, c := range contentClasses {
		for _, sz := range classSizes {
			src := renderClass(c.noiseWords, sz.n, 1, 7)
			frame := Compress(nil, src)
			b.Run(c.name+"/"+sz.name, func(b *testing.B) {
				b.SetBytes(int64(len(src)))
				for i := 0; i < b.N; i++ {
					if _, _, err := Decompress(nil, frame); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// classWork compresses 64 blocks of 32 KiB of the content class with
// noiseWords random words per sector, ids 1..64 under seed 1, each on its
// own as a cblock is, and returns the hash probes appendLZ made and the
// frame bytes Compress emitted over all of them.
func classWork(noiseWords int) (probes, frameBytes int) {
	for id := uint64(1); id <= 64; id++ {
		src := renderClass(noiseWords, 32<<10, 1, id)
		_, p := appendLZ(nil, src)
		probes += p
		frameBytes += len(Compress(nil, src))
	}
	return probes, frameBytes
}

// TestCompressWork pins the codec's work and output on 2 MiB of each
// content class: the exact probe count and frame bytes. The encoder is
// deterministic, so a change to its match search moves these numbers, and
// must re-record them knowingly, as a model change re-records a
// fingerprint. Before acceleration and backward extension the same input
// took 633,085 and 1,223,633 probes (0.302 and 0.583 per byte) for 699,559
// and 1,295,665 frame bytes.
func TestCompressWork(t *testing.T) {
	want := map[string]struct{ probes, frameBytes int }{
		"database": {279738, 704630},  // 0.133 probes/B, ratio 2.976
		"vdi":      {389157, 1283463}, // 0.186 probes/B, ratio 1.634
	}
	for _, c := range contentClasses {
		probes, frameBytes := classWork(c.noiseWords)
		if w := want[c.name]; probes != w.probes || frameBytes != w.frameBytes {
			t.Errorf("%s: %d probes, %d frame bytes; pinned %d probes, %d frame bytes",
				c.name, probes, frameBytes, w.probes, w.frameBytes)
		}
	}
}
