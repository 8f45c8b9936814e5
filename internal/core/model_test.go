package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// modelVolume mirrors one volume's expected contents.
type modelVolume struct {
	name    string
	data    []byte
	deleted bool
	snap    bool
}

// dumpSector prints every address fact that could serve a sector, for
// post-mortem diagnosis of model divergences.
func dumpSector(t *testing.T, a *Array, vol VolumeID, sector uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	row, _, err := a.volumeLocked(0, vol)
	if err != nil {
		t.Logf("dump: volume: %v", err)
		return
	}
	med := row.Medium
	t.Logf("dump: vol %d row=%+v", vol, row)
	t.Logf("dump: elide(addrs, col0) = %+v", a.elides[relation.IDAddrs].Ranges(0))
	t.Logf("dump: elide(mediums, col0) = %+v", a.elides[relation.IDMediums].Ranges(0))
	for hops := 0; hops < 8; hops++ {
		t.Logf("dump: medium %d, sector %d:", med, sector)
		lo := uint64(0)
		if sector >= 63 {
			lo = sector - 63
		}
		_, _ = a.pyr[2].ScanVersions(0, []uint64{med, lo}, []uint64{med, sector}, func(f tuple.Fact) bool {
			r := relation.AddrFromFact(f)
			if r.Sector+r.Sectors > sector {
				t.Logf("  seq=%d row=%+v valid=%v", f.Seq, r, a.addrValidLocked(r))
			}
			return true
		})
		mrow, ok, _, err := a.pyr[1].GetFloor(0, []uint64{med}, sector)
		if err != nil || !ok {
			t.Logf("  (no medium row: %v)", err)
			return
		}
		mr := relation.MediumFromFact(mrow)
		t.Logf("  medium row: %+v", mr)
		if mr.Target == relation.NoMedium || mr.End < sector {
			return
		}
		sector = mr.TargetOff + (sector - mr.Start)
		med = mr.Target
	}
}

// stateHash folds every fact of every relation plus the segment map into
// one number, for determinism bisection.
func stateHash(a *Array) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, relID := range a.relationIDs() {
		mix(uint64(relID))
		_, _ = a.pyr[relID].ScanVersions(0, nil, nil, func(f tuple.Fact) bool {
			mix(uint64(f.Seq))
			for _, c := range f.Cols {
				mix(c)
			}
			return true
		})
	}
	ids := make([]uint64, 0, len(a.segMap))
	for id := range a.segMap {
		ids = append(ids, uint64(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		info := a.segMap[layout.SegmentID(id)]
		mix(id)
		mix(uint64(info.Stripes))
		for _, au := range info.AUs {
			mix(uint64(au.Drive))
			mix(uint64(au.Index))
		}
	}
	return h
}

// TestEngineAgainstModel is the whole-engine randomized check: a few
// thousand operations — writes, reads, snapshots, clones, deletions, GC,
// background dedup, scrubs, checkpoints and full crash-recoveries — raced
// against a flat in-memory model. Any divergence at any point fails.
func TestEngineAgainstModel(t *testing.T) {
	const volSize = 1 << 20
	cfg := TestConfig()
	cfg.BackgroundEvery = 32
	cfg.MemtableFlushRows = 128
	cfg.CheckpointEvery = 3
	cfg.Shelf.DriveConfig.Capacity = 160 * cfg.Layout.AUSize()
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}

	r := sim.NewRand(20260705)
	model := map[VolumeID]*modelVolume{}
	now := sim.Time(0)
	live := func(snapOK bool) []VolumeID {
		var out []VolumeID
		for id, m := range model {
			if m.deleted || (m.snap && !snapOK) {
				continue
			}
			out = append(out, id)
		}
		// Deterministic order for reproducibility.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	pick := func(ids []VolumeID) VolumeID { return ids[r.Intn(len(ids))] }

	checkVol := func(step int, id VolumeID) {
		m := model[id]
		got, d, err := a.ReadAt(now, id, 0, volSize)
		if err != nil {
			t.Fatalf("step %d: read vol %d: %v", step, id, err)
		}
		now = d
		if !bytes.Equal(got, m.data) {
			for i := range got {
				if got[i] != m.data[i] {
					dumpSector(t, a, id, uint64(i/512))
					t.Fatalf("step %d: vol %d (%s) first mismatch at byte %d", step, id, m.name, i)
				}
			}
		}
	}

	for step := 0; step < 1200; step++ {
		vols := live(false)
		op := r.Intn(100)
		switch {
		case op < 40 && len(vols) > 0: // write
			id := pick(vols)
			m := model[id]
			off := int64(r.Intn(volSize/512-1)) * 512
			n := (r.Intn(24) + 1) * 512
			if off+int64(n) > volSize {
				n = int(volSize - off)
			}
			data := pattern(uint64(step)+7777, n)
			d, err := a.WriteAt(now, id, off, data)
			if err != nil {
				t.Fatalf("step %d: write: %v", step, err)
			}
			now = d
			copy(m.data[off:], data)

		case op < 65 && len(vols) > 0: // read spot check
			id := pick(vols)
			m := model[id]
			off := int64(r.Intn(volSize/512-1)) * 512
			n := (r.Intn(32) + 1) * 512
			if off+int64(n) > volSize {
				n = int(volSize - off)
			}
			got, d, err := a.ReadAt(now, id, off, n)
			if err != nil {
				t.Fatalf("step %d: read: %v", step, err)
			}
			now = d
			if !bytes.Equal(got, m.data[off:off+int64(n)]) {
				t.Fatalf("step %d: vol %d spot read mismatch at %d+%d", step, id, off, n)
			}

		case op < 72 && len(model) < 24: // create
			name := fmt.Sprintf("vol-%d", step)
			id, d, err := a.CreateVolume(now, name, volSize)
			if err != nil {
				t.Fatalf("step %d: create: %v", step, err)
			}
			now = d
			model[id] = &modelVolume{name: name, data: make([]byte, volSize)}

		case op < 78 && len(vols) > 0: // snapshot
			id := pick(vols)
			snap, d, err := a.Snapshot(now, id, fmt.Sprintf("snap-%d", step))
			if err != nil {
				t.Fatalf("step %d: snapshot: %v", step, err)
			}
			now = d
			model[snap] = &modelVolume{
				name: fmt.Sprintf("snap-%d", step),
				data: append([]byte(nil), model[id].data...),
				snap: true,
			}

		case op < 82: // clone a live snapshot
			var snaps []VolumeID
			for id, m := range model {
				if m.snap && !m.deleted {
					snaps = append(snaps, id)
				}
			}
			sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
			if len(snaps) == 0 {
				continue
			}
			src := pick(snaps)
			clone, d, err := a.Clone(now, src, fmt.Sprintf("clone-%d", step))
			if err != nil {
				t.Fatalf("step %d: clone: %v", step, err)
			}
			now = d
			model[clone] = &modelVolume{
				name: fmt.Sprintf("clone-%d", step),
				data: append([]byte(nil), model[src].data...),
			}

		case op < 86 && len(live(true)) > 3: // delete something
			all := live(true)
			id := pick(all)
			d, err := a.Delete(now, id)
			if err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			now = d
			model[id].deleted = true

		case op < 90: // GC
			_, d, err := a.RunGC(now)
			if err != nil {
				t.Fatalf("step %d: gc: %v", step, err)
			}
			now = d

		case op < 93: // background dedup
			_, d, err := a.BackgroundDedup(now)
			if err != nil {
				t.Fatalf("step %d: bg dedup: %v", step, err)
			}
			now = d

		case op < 95: // checkpoint
			d, err := a.FlushAll(now)
			if err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
			now = d

		case op < 98 && len(vols) > 0: // full volume verify
			checkVol(step, pick(vols))

		default: // crash and recover
			a2, _, err := OpenAt(cfg, a.Shelf(), now, false)
			if err != nil {
				t.Fatalf("step %d: recovery: %v", step, err)
			}
			a = a2
		}
	}

	// Final: every live volume and snapshot matches the model exactly, and
	// deleted ones stay gone — including after one last crash.
	for round := 0; round < 2; round++ {
		for _, id := range live(true) {
			checkVol(9000+round, id)
		}
		for id, m := range model {
			if !m.deleted {
				continue
			}
			if _, _, err := a.ReadAt(now, id, 0, 512); err != ErrVolumeDeleted {
				t.Fatalf("deleted volume %d readable: %v", id, err)
			}
		}
		if round == 0 {
			a2, _, err := OpenAt(cfg, a.Shelf(), now, false)
			if err != nil {
				t.Fatal(err)
			}
			a = a2
		}
	}
}

// TestDeterministicReplay: the entire engine — devices, commit, GC,
// recovery — must be bit-for-bit deterministic given the same operation
// sequence. Two independent arrays run the same 250-op script; their full
// fact-state hashes must agree at every step. (Map-iteration order leaking
// into behavior is the classic way storage engines lose reproducibility;
// this test pins it.)
func TestDeterministicReplay(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { deterministicReplay(t, lanes) })
	}
}

func deterministicReplay(t *testing.T, lanes int) {
	run := func() []uint64 {
		cfg := TestConfig()
		cfg.CommitLanes = lanes
		cfg.BackgroundEvery = 16
		cfg.MemtableFlushRows = 64
		cfg.CheckpointEvery = 2
		a, err := Format(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := sim.NewRand(777)
		now := sim.Time(0)
		vol, _, err := a.CreateVolume(0, "det", 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		var hashes []uint64
		for step := 0; step < 250; step++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				off := int64(r.Intn(4000)) * 512
				n := (r.Intn(16) + 1) * 512
				if off+int64(n) > 2<<20 {
					continue
				}
				d, err := a.WriteAt(now, vol, off, pattern(uint64(step), n))
				if err != nil {
					t.Fatal(err)
				}
				now = d
			case 6:
				if _, _, err := a.Snapshot(now, vol, fmt.Sprintf("s%d", step)); err != nil {
					t.Fatal(err)
				}
			case 7:
				if _, d, err := a.RunGC(now); err != nil {
					t.Fatal(err)
				} else {
					now = d
				}
			case 8:
				d, err := a.FlushAll(now)
				if err != nil {
					t.Fatal(err)
				}
				now = d
			case 9:
				a2, _, err := OpenAt(cfg, a.Shelf(), now, false)
				if err != nil {
					t.Fatal(err)
				}
				a = a2
			}
			hashes = append(hashes, stateHash(a))
		}
		return hashes
	}
	h1 := run()
	h2 := run()
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("runs diverged at step %d: %x vs %x", i, h1[i], h2[i])
		}
	}
}

// TestChurnStepwise is the background-churn check at its finest grain, at
// each lane count: overlapping 512 B–32 KiB overwrites of a volume and its
// clones, with snapshots, checkpoints, pyramid merges, GC and crash
// recovery in between. After every step the volume just written is compared
// with a flat model byte for byte, and sampled sectors of every volume are
// resolved both through the read path's lookups and through lookupOracle,
// so a failure names the first operation that broke.
func TestChurnStepwise(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { churnStepwise(t, lanes, 5) })
	}
}

func churnStepwise(t *testing.T, lanes int, seed uint64) {
	const span = 2 << 20 // the part of each 4 MiB volume that is written
	cfg := TestConfig()
	cfg.CommitLanes = lanes
	cfg.BackgroundEvery = 16
	cfg.MemtableFlushRows = 64
	cfg.CheckpointEvery = 2
	cfg.MaxPatches = 3                                         // merge early and often
	cfg.Shelf.DriveConfig.Capacity = 160 * cfg.Layout.AUSize() // room for the snapshots' share
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type volume struct {
		id    VolumeID
		model []byte
	}
	vols := []*volume{{mustCreate(t, a, "busy", 4<<20), make([]byte, span)}}
	r := sim.NewRand(seed)
	for i := 0; i < 400; i++ {
		where := fmt.Sprintf("seed %d lanes %d op %d", seed, lanes, i)
		// Sectors the oracle is asked about: a few anywhere, and after a
		// write both sides of each of its edges.
		samples := []uint64{uint64(r.Intn(span / 512)), uint64(r.Intn(span / 512)), uint64(r.Intn(span / 512))}
		switch op := r.Intn(100); {
		case op < 6 && len(vols) < 5:
			src := vols[r.Intn(len(vols))]
			snap, _, err := a.Snapshot(0, src.id, fmt.Sprintf("snap-%d", i))
			if err != nil {
				t.Fatalf("%s: snapshot: %v", where, err)
			}
			clone, _, err := a.Clone(0, snap, fmt.Sprintf("clone-%d", i))
			if err != nil {
				t.Fatalf("%s: clone: %v", where, err)
			}
			vols = append(vols, &volume{clone, append([]byte(nil), src.model...)})
		case op < 12:
			if _, err := a.FlushAll(0); err != nil {
				t.Fatalf("%s: flush: %v", where, err)
			}
		case op < 18:
			if _, _, err := a.RunGC(0); err != nil {
				t.Fatalf("%s: gc: %v", where, err)
			}
		case op < 22:
			if a, _, err = OpenAt(cfg, a.Shelf(), 0, false); err != nil {
				t.Fatalf("%s: recovery: %v", where, err)
			}
		default:
			v := vols[r.Intn(len(vols))]
			off := int64(r.Intn(span/512-1)) * 512
			n := min((r.Intn(64)+1)*512, span-int(off))
			data := pattern(uint64(i)+1000, n)
			copy(v.model[off:], data)
			mustWrite(t, a, v.id, off, data)
			got := mustRead(t, a, v.id, 0, span)
			if !bytes.Equal(got, v.model) {
				for j := range v.model {
					if got[j] != v.model[j] {
						t.Fatalf("%s (wrote [%d,+%d) of volume %d): first mismatch at byte %d (sector %d)", where, off, n, v.id, j, j/512)
					}
				}
			}
			first, end := uint64(off/512), uint64(off/512)+uint64(n/512)
			samples = append(samples, first-min(first, 1), first, end-1, end)
		}
		o := newLookupOracle(t, a)
		for _, v := range vols {
			checkLookupOracle(t, a, o, v.id, samples, where)
		}
	}
	if len(vols) < 3 {
		t.Fatalf("seed %d: only %d volumes; the script never cloned", seed, len(vols))
	}
}
