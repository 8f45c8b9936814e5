package nvram

import (
	"bytes"
	"runtime/debug"
	"testing"
	"testing/quick"

	"purity/internal/sim"
)

func newDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAppendAssignsDenseLSNs(t *testing.T) {
	d := newDevice(t)
	for i := 0; i < 10; i++ {
		rc, _, err := d.Append(0, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if rc.LSN() != LSN(i) {
			t.Fatalf("append %d got LSN %d", i, rc.LSN())
		}
	}
	if d.Head() != 10 {
		t.Fatalf("Head = %d, want 10", d.Head())
	}
}

// TestReceiptRoundTrip: Append's receipt names the record's LSN, the
// record read back hands out an equal receipt, and neither the zero value
// nor a failed append's receipt is valid.
func TestReceiptRoundTrip(t *testing.T) {
	d := newDevice(t)
	var rcs []Receipt
	for _, p := range []string{"alpha", "beta"} {
		rc, _, err := d.Append(0, []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		rcs = append(rcs, rc)
	}
	for i, r := range d.Records() {
		if !rcs[i].Valid() || rcs[i].LSN() != r.LSN {
			t.Fatalf("append %d: receipt %+v, record LSN %d", i, rcs[i], r.LSN)
		}
		if r.Receipt() != rcs[i] {
			t.Fatalf("record %d: read-back receipt %+v, append's %+v", i, r.Receipt(), rcs[i])
		}
	}
	if (Receipt{}).Valid() {
		t.Fatal("the zero receipt is valid")
	}
	d.Fail()
	if rc, _, err := d.Append(0, []byte("gamma")); err != ErrFailed || rc.Valid() {
		t.Fatalf("append to a failed device: receipt %+v, err %v", rc, err)
	}
}

func TestAppendLatency(t *testing.T) {
	d := newDevice(t)
	cfg := DefaultConfig()
	payload := make([]byte, 1000)
	_, done, err := d.Append(0, payload)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.PersistLatency + sim.Time(int64(cfg.PerByte)*1000)
	if done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
	// Appends serialize: a second append issued at time 0 queues.
	_, done2, err := d.Append(0, payload)
	if err != nil {
		t.Fatal(err)
	}
	if done2 != 2*want {
		t.Fatalf("queued append done = %v, want %v", done2, 2*want)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	d := newDevice(t)
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), {}, []byte("gamma")}
	for _, p := range payloads {
		if _, _, err := d.Append(0, p); err != nil {
			t.Fatal(err)
		}
	}
	recs := d.Records()
	if len(recs) != len(payloads) {
		t.Fatalf("got %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.LSN != LSN(i) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Records are copies: mutating the returned slice must not corrupt the log.
	if len(recs[0].Payload) > 0 {
		recs[0].Payload[0] = 'X'
		if got := d.Records()[0].Payload[0]; got != 'a' {
			t.Fatal("Records returned aliased memory")
		}
	}
}

func TestRelease(t *testing.T) {
	d := newDevice(t)
	for i := 0; i < 5; i++ {
		if _, _, err := d.Append(0, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	used := d.Used()
	if err := d.Release(3); err != nil {
		t.Fatal(err)
	}
	if d.Base() != 3 {
		t.Fatalf("Base = %d, want 3", d.Base())
	}
	if d.Used() >= used {
		t.Fatal("Release freed no space")
	}
	recs := d.Records()
	if len(recs) != 2 || recs[0].LSN != 3 {
		t.Fatalf("records after release: %+v", recs)
	}
	// Idempotent: releasing the same point again is fine.
	if err := d.Release(3); err != nil {
		t.Fatal(err)
	}
	// Beyond head: error.
	if err := d.Release(100); err == nil {
		t.Fatal("release beyond head accepted")
	}
}

func TestFullAndRelease(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 100
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each record costs 10 + 8 = 18 bytes: five fit, the sixth doesn't.
	payload := make([]byte, 10)
	for i := 0; i < 5; i++ {
		if _, _, err := d.Append(0, payload); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, _, err := d.Append(0, payload); err != ErrFull {
		t.Fatalf("append to full log: %v, want ErrFull", err)
	}
	if err := d.Release(2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Append(0, payload); err != nil {
		t.Fatalf("append after release: %v", err)
	}
	// A record bigger than the whole device is rejected outright.
	if _, _, err := d.Append(0, make([]byte, 200)); err != ErrTooLarge {
		t.Fatalf("oversized append: %v, want ErrTooLarge", err)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	d := newDevice(t)
	for i := 0; i < 20; i++ {
		p := bytes.Repeat([]byte{byte(i)}, i)
		if _, _, err := d.Append(0, p); err != nil {
			t.Fatal(err)
		}
	}
	_ = d.Release(5)
	img := d.Marshal()

	d2 := newDevice(t)
	n, err := d2.Unmarshal(img)
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("recovered %d records, want 15", n)
	}
	a, b := d.Records(), d2.Records()
	for i := range a {
		if a[i].LSN != b[i].LSN || !bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Fatalf("record %d mismatch after round trip", i)
		}
	}
}

func TestUnmarshalTornTail(t *testing.T) {
	d := newDevice(t)
	for i := 0; i < 10; i++ {
		if _, _, err := d.Append(0, []byte("payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	img := d.Marshal()
	// Truncate mid-record: only complete records survive.
	d2 := newDevice(t)
	n, err := d2.Unmarshal(img[:len(img)-7])
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("recovered %d records from torn image, want 9", n)
	}
}

func TestUnmarshalCorruptRecordStopsReplay(t *testing.T) {
	d := newDevice(t)
	for i := 0; i < 10; i++ {
		if _, _, err := d.Append(0, []byte("payload-payload")); err != nil {
			t.Fatal(err)
		}
	}
	img := d.Marshal()
	// Flip a byte inside record 4's payload (after 8-byte base header).
	recSize := 8 + 15
	img[8+4*recSize+recordOverhead+3] ^= 0xff
	d2 := newDevice(t)
	n, err := d2.Unmarshal(img)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("recovered %d records, want 4 (stop at corruption)", n)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	d := newDevice(t)
	if _, err := d.Unmarshal(nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, err := d.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short image accepted")
	}
}

func TestAppendReleaseProperty(t *testing.T) {
	// Property: used space is always the sum of live record costs, and
	// Head - Base always equals the live record count.
	f := func(sizes []uint8, releaseAt uint8) bool {
		cfg := DefaultConfig()
		d, _ := New(cfg)
		for _, s := range sizes {
			if _, _, err := d.Append(0, make([]byte, int(s))); err != nil {
				return false
			}
		}
		r := LSN(releaseAt)
		if r > d.Head() {
			r = d.Head()
		}
		if err := d.Release(r); err != nil {
			return false
		}
		var want int64
		for i := int(r); i < len(sizes); i++ {
			want += int64(sizes[i]) + recordOverhead
		}
		return d.Used() == want && int(d.Head()-d.Base()) == len(sizes)-int(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestAppendSteadyStateAllocs pins that a log trimmed whole allocates
// nothing once it has grown: after one fill-and-release cycle, appends copy
// into the capacity the first fill left.
func TestAppendSteadyStateAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation counts are pinned for the build that ships, not the race detector's")
	}
	d := newDevice(t)
	payload := bytes.Repeat([]byte("record"), 2000)
	const fill = 64
	for range fill {
		if _, _, err := d.Append(0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Release(d.Head()); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(fill-1, func() {
		if _, _, err := d.Append(0, payload); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Append after a fill-and-release cycle: %v allocations, want 0", n)
	}
	if d.Used() != fill*int64(len(payload)+recordOverhead) {
		t.Fatalf("Used = %d after %d appends", d.Used(), fill)
	}
}

// appendAll appends one record per payload, failing the test on an error.
func appendAll(t *testing.T, d *Device, payloads ...[]byte) {
	t.Helper()
	for _, p := range payloads {
		if _, _, err := d.Append(0, p); err != nil {
			t.Fatal(err)
		}
	}
}

// wantRecords fails unless d's live records are payloads, from LSN base.
func wantRecords(t *testing.T, d *Device, base LSN, payloads ...[]byte) {
	t.Helper()
	recs := d.Records()
	if len(recs) != len(payloads) {
		t.Fatalf("%d records, want %d", len(recs), len(payloads))
	}
	var used int64
	for i, r := range recs {
		if r.LSN != base+LSN(i) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d = LSN %d %q, want LSN %d %q", i, r.LSN, r.Payload, base+LSN(i), payloads[i])
		}
		used += int64(len(payloads[i])) + recordOverhead
	}
	if d.Base() != base || d.Head() != base+LSN(len(payloads)) || d.Used() != used {
		t.Fatalf("Base %d Head %d Used %d, want %d %d %d", d.Base(), d.Head(), d.Used(), base, base+LSN(len(payloads)), used)
	}
}

// TestPartialReleaseKeepsLaterRecords: releasing below the head keeps every
// later record's bytes and LSN, and appends after it land behind them.
func TestPartialReleaseKeepsLaterRecords(t *testing.T) {
	d := newDevice(t)
	appendAll(t, d, []byte("zero"), []byte("one"), []byte{}, []byte("three"), []byte("four"))
	if err := d.Release(2); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, d, 2, []byte{}, []byte("three"), []byte("four"))
	appendAll(t, d, []byte("five"))
	if err := d.Release(4); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, d, 4, []byte("four"), []byte("five"))
	if err := d.Release(d.Head()); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, d, 6)
	appendAll(t, d, []byte("six"))
	wantRecords(t, d, 6, []byte("six"))
}

// TestTailDamageAfterRelease: TornTail and CorruptTail drop only the last
// record of a log that has been partly released, keeping the base.
func TestTailDamageAfterRelease(t *testing.T) {
	for _, damage := range []struct {
		name string
		fn   func(*Device) int
	}{{"torn", (*Device).TornTail}, {"corrupt", (*Device).CorruptTail}} {
		t.Run(damage.name, func(t *testing.T) {
			d := newDevice(t)
			appendAll(t, d, []byte("alpha"), []byte("beta"), []byte("gamma"), []byte("delta"))
			if err := d.Release(2); err != nil {
				t.Fatal(err)
			}
			if n := damage.fn(d); n != 1 {
				t.Fatalf("%d records survived, want 1", n)
			}
			wantRecords(t, d, 2, []byte("gamma"))
			appendAll(t, d, []byte("epsilon"))
			wantRecords(t, d, 2, []byte("gamma"), []byte("epsilon"))
		})
	}
}

// TestRecordsAreCopies: writing to, or appending to, a payload Records
// returned leaves the device and the other payloads as they were.
func TestRecordsAreCopies(t *testing.T) {
	d := newDevice(t)
	appendAll(t, d, []byte("alpha"), []byte("beta"), []byte("gamma"))
	recs := d.Records()
	for _, r := range recs {
		for i := range r.Payload {
			r.Payload[i] = 'X'
		}
	}
	_ = append(recs[0].Payload, "YYYY"...)
	wantRecords(t, d, 0, []byte("alpha"), []byte("beta"), []byte("gamma"))
	if string(recs[1].Payload) != "XXXX" {
		t.Fatalf("appending to record 0's payload wrote into record 1's: %q", recs[1].Payload)
	}
}

// TestUnmarshalReplacesLog: Unmarshal into a device that already has a log
// replaces it, base and all.
func TestUnmarshalReplacesLog(t *testing.T) {
	src := newDevice(t)
	appendAll(t, src, []byte("one"), []byte("two"), []byte("three"))
	if err := src.Release(1); err != nil {
		t.Fatal(err)
	}
	d := newDevice(t)
	appendAll(t, d, bytes.Repeat([]byte("old"), 100), []byte("older"))
	if n, err := d.Unmarshal(src.Marshal()); err != nil || n != 2 {
		t.Fatalf("Unmarshal = %d, %v; want 2 records", n, err)
	}
	wantRecords(t, d, 1, []byte("two"), []byte("three"))
	appendAll(t, d, []byte("four"))
	wantRecords(t, d, 1, []byte("two"), []byte("three"), []byte("four"))
}
