// Package nvram models the shelf NVRAM device Purity commits writes to
// before acknowledging them (§4.1–4.2 of the paper). The production part is
// an SLC flash device with bounded latency and a very high P/E rating,
// living in the shelf so that controllers stay stateless: after a controller
// failure the survivor replays the NVRAM log.
//
// The model is a record log: records are appended at the head and
// released from the tail (every record below an LSN at once, after what
// they hold is durable elsewhere). It has a fixed-plus-per-byte persist
// latency and bounded capacity, and its image frames every record with a
// CRC so torn or corrupted records are detected at replay.
package nvram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"purity/internal/lockrank"
	"purity/internal/sim"
)

// Config describes one NVRAM device.
type Config struct {
	Capacity       int64    // bytes of log space
	PersistLatency sim.Time // fixed per-append cost
	PerByte        sim.Time // additional cost per byte appended
}

// DefaultConfig returns the scaled-down device used by tests and benchmarks.
// Latency is far below the SSDs' program latency, matching the SLC part the
// paper describes.
func DefaultConfig() Config {
	return Config{
		Capacity:       32 << 20,
		PersistLatency: 10 * sim.Microsecond,
		PerByte:        2, // 2 ns/B ≈ 500 MB/s per device
	}
}

// Errors returned by Device.
var (
	ErrFull     = errors.New("nvram: log full")
	ErrTooLarge = errors.New("nvram: record exceeds capacity")
	ErrFailed   = errors.New("nvram: device failed")
)

// LSN identifies a record in the log. LSNs are dense and increase by one per
// append; they are not byte offsets.
type LSN uint64

// Record is a replayed log record.
type Record struct {
	LSN     LSN
	Payload []byte
}

// Receipt is the proof that a record is in the log: Append returns one for
// the record it persisted, and Record.Receipt returns one for a record read
// back from the log. These are its only constructors, and its zero value
// proves nothing, for LSN 0 too, so a function that may only run after a
// record's append takes its Receipt and rejects the zero value.
type Receipt struct {
	lsn   LSN
	valid bool
}

// LSN returns the record's LSN.
func (r Receipt) LSN() LSN { return r.lsn }

// Valid reports whether r came from an append or a read-back, rather than
// being the zero value.
func (r Receipt) Valid() bool { return r.valid }

// Receipt returns the proof that r is in the log it was read back from.
func (r Record) Receipt() Receipt { return Receipt{lsn: r.LSN, valid: true} }

const recordOverhead = 8 // uint32 length + uint32 crc

// Device is one NVRAM log. It is dual-ported: both controllers hold a
// reference and the survivor reads it during failover. Methods are safe for
// concurrent use.
type Device struct {
	cfg Config

	mu     lockrank.Mutex[lockrank.NvramDeviceMu]
	failed bool
	// The live records' payloads lie back to back in log; record i (LSN
	// base+i) is log[ends[i-1]:ends[i]], from 0 for the first. Appends
	// copy into log, and releasing everything keeps its capacity, so a
	// log that is trimmed whole allocates nothing once it has grown.
	log     []byte
	ends    []int
	base    LSN
	used    int64
	busy    sim.Time // device is serial: appends queue
	appends int64
}

// New returns an empty device.
func New(cfg Config) (*Device, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("nvram: invalid capacity %d", cfg.Capacity)
	}
	return &Device{cfg: cfg}, nil
}

// Append persists payload as one record, returning its receipt and the
// simulated completion time. The payload is copied. Append fails with ErrFull when the
// log has no room; callers must Release old records (after flushing them to
// segments) to make space.
func (d *Device) Append(at sim.Time, payload []byte) (Receipt, sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return Receipt{}, at, ErrFailed
	}
	need := int64(len(payload)) + recordOverhead
	if need > d.cfg.Capacity {
		return Receipt{}, at, ErrTooLarge
	}
	if d.used+need > d.cfg.Capacity {
		return Receipt{}, at, ErrFull
	}
	if len(payload) > cap(d.log)-len(d.log) {
		// Double, up to the device's capacity: a log that grows to its
		// peak once has then allocated about twice that and keeps at most
		// twice its peak. append's quarter steps for a large slice would
		// allocate five times the peak on the way.
		grown := make([]byte, len(d.log), min(max(2*cap(d.log), len(d.log)+len(payload)), int(d.cfg.Capacity)))
		copy(grown, d.log)
		d.log = grown
	}
	d.log = append(d.log, payload...)
	d.ends = append(d.ends, len(d.log))
	d.used += need
	d.appends++
	rc := Receipt{lsn: d.base + LSN(len(d.ends)-1), valid: true}

	start := sim.Max(at, d.busy)
	done := start + d.cfg.PersistLatency + sim.Time(int64(d.cfg.PerByte)*int64(len(payload)))
	d.busy = done
	return rc, done, nil
}

// Release discards all records with LSN < upTo, freeing their space. It is
// idempotent; releasing beyond the head is an error.
func (d *Device) Release(upTo LSN) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if upTo <= d.base {
		return nil
	}
	head := d.base + LSN(len(d.ends))
	if upTo > head {
		return fmt.Errorf("nvram: release %d beyond head %d", upTo, head)
	}
	n := int(upTo - d.base)
	cut := d.ends[n-1]
	d.used -= int64(cut) + int64(n)*recordOverhead
	// The records kept move to the front of log, and their ends with them.
	kept := copy(d.log, d.log[cut:])
	d.log = d.log[:kept]
	for i, e := range d.ends[n:] {
		d.ends[i] = e - cut
	}
	d.ends = d.ends[:len(d.ends)-n]
	d.base = upTo
	return nil
}

// Records returns a copy of all live records in LSN order; the payloads
// share one new buffer, each capped at its own end. Recovery replays
// these; because all Purity tuples are immutable facts, replaying records
// that were already flushed to segments is harmless (§4.3).
func (d *Device) Records() []Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	log := bytes.Clone(d.log)
	out := make([]Record, len(d.ends))
	lo := 0
	for i, end := range d.ends {
		out[i] = Record{LSN: d.base + LSN(i), Payload: log[lo:end:end]}
		lo = end
	}
	return out
}

// Head returns the LSN the next append will receive.
func (d *Device) Head() LSN {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.base + LSN(len(d.ends))
}

// Base returns the LSN of the oldest live record.
func (d *Device) Base() LSN {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.base
}

// Used returns the bytes of log space currently occupied.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Capacity returns the configured log capacity.
func (d *Device) Capacity() int64 { return d.cfg.Capacity }

// Appends returns the lifetime append count.
func (d *Device) Appends() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appends
}

// Fail takes the device offline: appends return ErrFailed until Revive. The
// log contents are preserved (losing an NVRAM device does not scramble its
// flash), but the commit path must stop relying on it — the redundant pair
// exists exactly for this.
func (d *Device) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Revive brings a failed device back online.
func (d *Device) Revive() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
}

// Failed reports whether the device is offline.
func (d *Device) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// Marshal serializes the live log into a flat image with per-record CRC
// framing. Unmarshal (on a fresh device) restores it, skipping torn or
// corrupt trailing records. This pair exists for crash-injection tests: a
// crash is modelled as Marshal, optional truncation, then Unmarshal.
func (d *Device) Marshal() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, 0, 8+len(d.log)+len(d.ends)*recordOverhead)
	out = binary.LittleEndian.AppendUint64(out, uint64(d.base))
	lo := 0
	for _, end := range d.ends {
		r := d.log[lo:end]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(r))
		out = append(out, r...)
		lo = end
	}
	return out
}

// TornTail simulates a power loss that tore the in-flight trailing record:
// the device re-reads its own marshalled image with the last few bytes
// missing, so the final record fails its length framing and is dropped at
// the CRC/framing scan, exactly as a real torn append would be. Returns the
// number of records that survived. A device with no records is unchanged.
func (d *Device) TornTail() int {
	img := d.Marshal()
	if len(img) <= 8 {
		return 0
	}
	cut := 4
	if cut > len(img)-8 {
		cut = len(img) - 8
	}
	n, _ := d.Unmarshal(img[:len(img)-cut])
	return n
}

// CorruptTail simulates a crash that left the trailing record's bytes
// present but scrambled (a partial program of the last page): the last
// payload byte is flipped, so the record fails its CRC at replay and is
// dropped along with everything after it. Returns the surviving record
// count. A device with no records is unchanged.
func (d *Device) CorruptTail() int {
	img := d.Marshal()
	if len(img) <= 8 {
		return 0
	}
	img[len(img)-1] ^= 0xFF
	n, _ := d.Unmarshal(img)
	return n
}

// Unmarshal replaces the device contents with the image produced by
// Marshal. It stops at the first torn or corrupt record, returning how many
// records survived.
func (d *Device) Unmarshal(img []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) < 8 {
		return 0, errors.New("nvram: image too short")
	}
	d.base = LSN(binary.LittleEndian.Uint64(img))
	d.log, d.ends = d.log[:0], d.ends[:0]
	d.used = 0
	pos := 8
	for pos+recordOverhead <= len(img) {
		n := int(binary.LittleEndian.Uint32(img[pos:]))
		crc := binary.LittleEndian.Uint32(img[pos+4:])
		if pos+recordOverhead+n > len(img) {
			break // torn tail
		}
		payload := img[pos+recordOverhead : pos+recordOverhead+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt record: everything after is suspect
		}
		d.log = append(d.log, payload...)
		d.ends = append(d.ends, len(d.log))
		d.used += int64(n) + recordOverhead
		pos += recordOverhead + n
	}
	return len(d.ends), nil
}
