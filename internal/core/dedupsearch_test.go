package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"purity/internal/cblock"
	"purity/internal/dedup"
	"purity/internal/sim"
)

// tierDelta is what the duplicate search counted between two snapshots.
type tierDelta struct {
	hits, misses, blocks         int64
	recentHits, recentBlocks     int64
	relationProbes               int64
	relationHits, relationBlocks int64
	falseCandidates              int64
	unsealedRejects              int64
}

func tierCounts(before, after StatsSnapshot) tierDelta {
	return tierDelta{
		hits:            after.DedupHits - before.DedupHits,
		misses:          after.DedupMisses - before.DedupMisses,
		blocks:          after.InlineDupBlocks - before.InlineDupBlocks,
		recentHits:      after.DedupRecentHits - before.DedupRecentHits,
		recentBlocks:    after.DedupRecentBlocks - before.DedupRecentBlocks,
		relationProbes:  after.DedupRelationProbes - before.DedupRelationProbes,
		relationHits:    after.DedupRelationHits - before.DedupRelationHits,
		relationBlocks:  after.DedupRelationBlocks - before.DedupRelationBlocks,
		falseCandidates: after.DedupFalseCandidates - before.DedupFalseCandidates,
		unsealedRejects: after.DedupUnsealedRejects - before.DedupUnsealedRejects,
	}
}

// TestDedupTierRecentFirst pins the search's tier order: an extent whose
// first block hash verifies in the recent index asks the dedup relation
// nothing, and counts as a recent hit. Before the flush the same extent's
// candidates all sit in an unsealed segment: every one, in both tiers, is
// rejected unread as unsealed (none counts as a false candidate), and the
// relation is asked for every hash.
func TestDedupTierRecentFirst(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "v", 2<<20)
	const blocks = cblock.MaxBytes / dedup.BlockSize
	img := pattern(5, cblock.MaxBytes)
	mustWrite(t, a, vol, 0, img)

	before := a.Stats()
	mustWrite(t, a, vol, cblock.MaxBytes, img)
	sampled := int64(dedup.Recorded(blocks, a.cfg.DedupSampling))
	want := tierDelta{misses: 1, relationProbes: blocks, unsealedRejects: blocks + sampled}
	if got := tierCounts(before, a.Stats()); got != want {
		t.Fatalf("repeat into an unsealed segment counted %+v, want %+v", got, want)
	}

	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	before = a.Stats()
	mustWrite(t, a, vol, 2*cblock.MaxBytes, img)
	want = tierDelta{hits: 1, blocks: blocks, recentHits: 1, recentBlocks: blocks}
	if got := tierCounts(before, a.Stats()); got != want {
		t.Fatalf("repeat of a sealed extent counted %+v, want %+v", got, want)
	}
	for i := 0; i < 3; i++ {
		if got := mustRead(t, a, vol, int64(i)*cblock.MaxBytes, cblock.MaxBytes); !bytes.Equal(got, img) {
			t.Fatalf("extent %d reads back wrong", i)
		}
	}
}

// TestDedupTierRelationOnly: after a recovery the recent index is empty,
// so a duplicate only the dedup relation knows is found there, counted as
// a relation hit, and reads back.
func TestDedupTierRelationOnly(t *testing.T) {
	a := newArray(t)
	v1 := mustCreate(t, a, "v1", 2<<20)
	const blocks = cblock.MaxBytes / dedup.BlockSize
	img := pattern(3, cblock.MaxBytes)
	mustWrite(t, a, v1, 0, img)
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	a2, _, err := OpenAt(TestConfig(), a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := a2.recent.Len(); n != 0 {
		t.Fatalf("recovery left %d recent-index entries, want none", n)
	}
	v2 := mustCreate(t, a2, "v2", 2<<20)
	before := a2.Stats()
	mustWrite(t, a2, v2, 0, img)
	want := tierDelta{hits: 1, blocks: blocks, relationProbes: blocks, relationHits: 1, relationBlocks: blocks}
	if got := tierCounts(before, a2.Stats()); got != want {
		t.Fatalf("duplicate known only to the relation counted %+v, want %+v", got, want)
	}
	for _, vol := range []VolumeID{v1, v2} {
		if got := mustRead(t, a2, vol, 0, cblock.MaxBytes); !bytes.Equal(got, img) {
			t.Fatalf("volume %d reads back wrong", vol)
		}
	}
}

// tierModelRun drives one seeded script of duplicate-heavy writes and
// returns every op's completion time and the final engine stats document.
// Each round writes from a window of four extent templates that slides one
// template a round, so each round brings one new template (its repeats in
// the round find only unsealed candidates) and repeats three older ones. A
// FlushAll ends each round, so candidates seal, and a recovery after the
// third leaves the recent index empty, so the relation answers for the
// older templates. With probe set, the document is taken and marshalled
// after every op.
func tierModelRun(t *testing.T, probe bool) ([]sim.Time, string) {
	t.Helper()
	a, err := Format(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	var acks []sim.Time
	step := func(d sim.Time, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		now = d
		acks = append(acks, d)
		if probe {
			if _, err := json.Marshal(a.Stats()); err != nil {
				t.Fatal(err)
			}
		}
	}
	const volBytes = 1 << 20
	const window = 4
	templates := make([][]byte, 6+window)
	for i := range templates {
		templates[i] = pattern(uint64(i)+40, cblock.MaxBytes)
	}
	r := sim.NewRand(31)
	vol, d, err := a.CreateVolume(now, "v", volBytes)
	step(d, err)
	for round := 0; round < 6; round++ {
		if round == 3 {
			if a, _, err = OpenAt(TestConfig(), a.Shelf(), now, false); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 24; i++ {
			off := int64(r.Intn(volBytes/cblock.MaxBytes)) * cblock.MaxBytes
			step(a.WriteAt(now, vol, off, templates[round+r.Intn(window)]))
		}
		step(a.FlushAll(now))
	}
	st := a.Stats()
	if st.DedupRecentHits == 0 || st.DedupRelationHits == 0 || st.DedupUnsealedRejects == 0 || st.DedupMemFiltered == 0 {
		t.Fatalf("the script exercised too few tiers: %d recent hits, %d relation hits, %d unsealed rejects, %d keys the memtable filter ruled out",
			st.DedupRecentHits, st.DedupRelationHits, st.DedupUnsealedRejects, st.DedupMemFiltered)
	}
	doc, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return acks, string(doc)
}

// TestDedupTierCountersDoNotMoveModel: reading the tier counters — taking
// and marshalling the stats document after every op of a script that hits
// in both tiers, and whose memtable filter rules keys out — leaves every
// completion time and every figure of the final document exactly as it is
// without. The document carries them.
func TestDedupTierCountersDoNotMoveModel(t *testing.T) {
	plain, plainDoc := tierModelRun(t, false)
	probed, probedDoc := tierModelRun(t, true)
	if fmt.Sprint(plain) != fmt.Sprint(probed) {
		t.Fatalf("completion times moved under Stats() probes:\n%v\n%v", plain, probed)
	}
	if plainDoc != probedDoc {
		t.Fatalf("stats document moved under Stats() probes:\n--- without\n%s\n--- with\n%s", plainDoc, probedDoc)
	}
	for _, key := range []string{"DedupRecentHits", "DedupRecentBlocks", "DedupRelationProbes", "DedupMemFiltered",
		"DedupRelationHits", "DedupRelationBlocks", "DedupFalseCandidates", "DedupUnsealedRejects"} {
		if !bytes.Contains([]byte(plainDoc), []byte(`"`+key+`"`)) {
			t.Errorf("the engine stats document has no %s", key)
		}
	}
}
