package core

import (
	"bytes"
	"fmt"
	"testing"

	"purity/internal/sim"
)

// multiExtentFingerprint is what the device model computed for
// TestMultiExtentFingerprint's script at each lane count. A change to the
// write path's CPU work — PR 23 moved the pack behind the duplicate search
// (§4.7's order) — must leave every one of them untouched.
//
// Re-recorded in PR 24 together with modelFingerprint, for the same
// reason: the script's reads (dedup byte-verifies of sealed candidates) no
// longer reconstruct around drives that are only serving other reads, so
// they move fewer bytes or more, finish at other times, and the writes
// that wait for them ack earlier. What was written, deduplicated and
// rotated is unchanged. The values recorded at cbb10a5 were, at lanes 1:
// final ack 365774230, write sim sum 278192960, HostBytesRead 61711976,
// StalledReads 52; at lanes 4: final ack 396083504, write sim sum
// 271316454, HostBytesRead 48812086, StalledReads 42.
//
// Re-recorded in PR 26, which moved the model on purpose: a write's NVRAM
// record carries the packed frame instead of the raw sectors, so each commit
// persists about a third of the bytes (NVRAM charges 2 ns/B) and acks
// sooner; the reads behind the writes shift with them. What was written,
// deduplicated and rotated is unchanged. The values recorded in PR 24 were,
// at lanes 1: final ack 347263876, write sim sum 259682606, HostBytesRead
// 67217000, StalledReads 15, QueuedReads 13; at lanes 4: final ack
// 374070032, write sim sum 249162554, HostBytesRead 51171382, StalledReads
// 9, QueuedReads 9.
//
// Re-recorded with right-sized reads, which moved the model on purpose: a
// dedup byte-verify reads the candidate's frame and checks the frame's own
// CRC, not the whole write unit around it, so the script's drive reads
// fall seven to eight times, no read queues behind another, and the writes
// that wait for them ack sooner. The frames' 4-byte CRC trailer moves the
// reduction ratio. What was written, deduplicated and rotated is
// unchanged. The values recorded at the frame-logging change above were,
// at lanes 1: final ack 335591940, write sim sum 249567448, HostBytesRead
// 65644136, StalledReads 13, QueuedReads 12, reduction ratio 1.973847353;
// at lanes 4: final ack 365102390, write sim sum 241802864, HostBytesRead
// 51957814, StalledReads 16, QueuedReads 10, reduction ratio 1.919064995.
//
// Re-recorded with one segment table, together with modelFingerprint and
// for the same reason: no segment-relation row at a segment's open or
// seal and no placement rows, so the checkpoints write fewer metadata
// bytes and the last write acks 2 µs sooner. What was read, written as
// data, deduplicated and rotated is unchanged. The values recorded with
// right-sized reads above were, at lanes 1: final ack 275826424,
// HostBytesWritten 52248486, FlashBytesWritten 52280994; at lanes 4: final
// ack 311619314, HostBytesWritten 55858407, FlashBytesWritten 55882662.
//
// Re-recorded with the XXH64 block hash, together with modelFingerprint
// and for the same reason: the dedup facts carry the new hashes, so other
// dedup pages and candidates are read. What was deduplicated, and the
// reduction ratio, are unchanged; the last write acks under 0.1 µs sooner.
// The values recorded with one segment table above were, at lanes 1: final
// ack 275824404, write sim sum 189639556, HostBytesRead 8873353; at lanes
// 4: final ack 311617294, write sim sum 189367604.
//
// Re-recorded with the accelerated match search, together with
// modelFingerprint and for the same reason: compress.Compress frames the
// same blocks to other sizes. This script's blocks frame shorter, so the
// NVRAM records are smaller and the writes ack sooner, and the dedup
// byte-verifies read shorter frames (HostBytesRead −1.6 % at lanes 1,
// −2.1 % at lanes 4). What was deduplicated and rotated, and the bytes
// written to the drives, are unchanged; the reduction ratio rises by
// 0.02 %. The values recorded with the XXH64 block hash above were, at
// lanes 1: final ack 275824366, write sim sum 189639522, HostBytesRead
// 8850677, reduction ratio 1.973473710; at lanes 4: final ack 311617212,
// write sim sum 189367470, HostBytesRead 6554754, reduction ratio
// 1.918704513.
var multiExtentFingerprint = map[int]string{
	1: `final ack        275637650
write sim sum    189454318
flash            {HostBytesRead:8713336 HostBytesWritten:52247403 FlashBytesWritten:52277040 Erases:0 RandomWrites:9 StalledReads:6 QueuedReads:0 MaxWear:3 BadBlocks:0 BitFlips:0}
dedup            1201 hits, 895 misses, 52800 inline dup blocks
reduction ratio  1.973844176
rotations        4
`,
	4: `final ack        311442930
write sim sum    189176154
flash            {HostBytesRead:6415371 HostBytesWritten:55857594 FlashBytesWritten:55879788 Erases:0 RandomWrites:6 StalledReads:8 QueuedReads:0 MaxWear:2 BadBlocks:0 BitFlips:0}
dedup            1165 hits, 931 misses, 50560 inline dup blocks
reduction ratio  1.919062100
rotations        4
`,
}

// TestMultiExtentFingerprint pins the device model's view of multi-extent
// writes: a seeded script of 64–256 KiB writes whose 32 KiB extents are
// unique, duplicates of sealed golden data, half-duplicates, or repeats of
// what the script itself wrote earlier (a hit only once the segment that
// holds it has sealed — so where a rotation falls inside a write decides
// what the extents after it find). TestModelFingerprint's script never
// exceeds one extent; the interleaving of search and placement across the
// extents of one write is pinned here.
func TestMultiExtentFingerprint(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			got := runMultiExtentScript(t, lanes)
			if want := multiExtentFingerprint[lanes]; got != want {
				t.Errorf("the device model noticed this change.\n--- got\n%s--- want (recorded with the accelerated match search)\n%s", got, want)
			}
		})
	}
}

func runMultiExtentScript(t *testing.T, lanes int) string {
	const (
		extent     = 32 << 10
		templates  = 96
		volBytes   = 16 << 20
		writes     = 400
		flushEvery = 200
	)
	cfg := DefaultConfig()
	cfg.CommitLanes = lanes
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	step := func(d sim.Time, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	template := func(i int) []byte { return pattern(uint64(i)+1, extent) }

	// The golden image: sealed and checkpointed, so every template is a
	// dedup candidate the search may byte-verify.
	golden, d, err := a.CreateVolume(now, "golden", templates*extent)
	step(d, err)
	for i := 0; i < templates; i++ {
		step(a.WriteAt(now, golden, int64(i)*extent, template(i)))
	}
	step(a.FlushAll(now))

	vols := make([]VolumeID, 2)
	models := make([][]byte, len(vols))
	for i := range vols {
		vols[i], d, err = a.CreateVolume(now, fmt.Sprintf("target-%d", i), volBytes)
		step(d, err)
		models[i] = make([]byte, volBytes)
	}

	r := sim.NewRand(23)
	var earlier [][]byte // extents with unique bytes this script has written
	seeds := uint64(1_000_000)
	fill := func(part []byte, compressible bool) {
		seeds++
		if compressible {
			copy(part, pattern(seeds, len(part)))
		} else {
			sim.NewRand(seeds).Bytes(part)
		}
	}
	var writeSim sim.Time
	for i := 0; i < writes; i++ {
		buf := make([]byte, (2+r.Intn(7))*extent)
		for off := 0; off < len(buf); off += extent {
			part := buf[off : off+extent]
			kind := r.Intn(6)
			if kind == 5 && len(earlier) == 0 {
				kind = 0
			}
			switch kind {
			case 0:
				fill(part, false)
			case 1:
				fill(part, true)
			case 2:
				copy(part, template(r.Intn(templates)))
			case 3: // duplicate front half, unique back half
				fill(part, false)
				copy(part[:extent/2], template(r.Intn(templates)))
			case 4: // unique front half, duplicate back half
				fill(part, true)
				copy(part[extent/2:], template(r.Intn(templates))[extent/2:])
			case 5:
				copy(part, earlier[r.Intn(len(earlier))])
			}
			if kind != 2 && kind != 5 {
				earlier = append(earlier, append([]byte(nil), part...))
			}
		}
		v := i % len(vols)
		off := int64(r.Intn((volBytes-len(buf))/512)) * 512
		at := now
		step(a.WriteAt(now, vols[v], off, buf))
		writeSim += now - at
		copy(models[v][off:], buf)
		if i%flushEvery == flushEvery-1 {
			step(a.FlushAll(now))
		}
	}

	st := a.Stats()
	var rotations int64
	for _, ls := range a.LaneTelemetry().Lanes {
		rotations += ls.Rotations
	}
	if rotations == 0 {
		t.Fatal("script too short to mean anything: no lane filled a segment")
	}
	got := fmt.Sprintf("final ack        %d\nwrite sim sum    %d\n"+
		"flash            %+v\ndedup            %d hits, %d misses, %d inline dup blocks\n"+
		"reduction ratio  %.9f\nrotations        %d\n",
		int64(now), int64(writeSim), st.FlashStats,
		st.DedupHits, st.DedupMisses, st.InlineDupBlocks, st.ReductionRatio, rotations)

	for v, vol := range vols {
		data, _, err := a.ReadAt(now, vol, 0, volBytes)
		if err != nil {
			t.Fatalf("volume %d: read back: %v", v, err)
		}
		if !bytes.Equal(data, models[v]) {
			t.Fatalf("volume %d does not read back what was written", v)
		}
	}
	return got
}

// TestWritePacksOnlyWhatItStores counts the bytes handed to the compressor
// by each shape of write against sealed, checkpointed golden data: a write
// packs what the duplicate search left and nothing else.
func TestWritePacksOnlyWhatItStores(t *testing.T) {
	const extent = 32 << 10
	a := newArray(t)
	golden := mustCreate(t, a, "golden", 8*extent)
	template := func(i int) []byte { return pattern(uint64(i)+1, extent) }
	for i := 0; i < 8; i++ {
		mustWrite(t, a, golden, int64(i)*extent, template(i))
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "target", 4<<20)
	unique := func(seed uint64, n int) []byte {
		b := make([]byte, n)
		sim.NewRand(seed).Bytes(b)
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	cases := []struct {
		name     string
		data     []byte
		min, max int64 // bounds on the PackedBytes delta
	}{
		{"32 KiB all duplicate", template(0), 0, 0},
		{"32 KiB unique", unique(100, extent), extent, extent},
		{"32 KiB, middle 16 KiB duplicate",
			cat(unique(101, 8<<10), template(1)[8<<10:24<<10], unique(102, 8<<10)), 16 << 10, 16 << 10},
		{"128 KiB unique", unique(103, 4*extent), 4 * extent, 4 * extent},
		{"128 KiB all duplicate", cat(template(2), template(3), template(4), template(5)), 0, 0},
		{"96 KiB duplicate, unique, duplicate",
			cat(template(6), unique(104, extent), template(7)), extent, extent},
	}
	off := int64(0)
	for _, c := range cases {
		before := a.Stats().PackedBytes
		mustWrite(t, a, vol, off, c.data)
		if got := a.Stats().PackedBytes - before; got < c.min || got > c.max {
			t.Errorf("%s: packed %d bytes, want %d–%d", c.name, got, c.min, c.max)
		}
		if got := mustRead(t, a, vol, off, len(c.data)); !bytes.Equal(got, c.data) {
			t.Errorf("%s: does not read back what was written", c.name)
		}
		off += int64(len(c.data))
	}
}
