package core

import (
	"fmt"

	"purity/internal/cblock"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// VolumeID identifies a volume or a snapshot (snapshots are volume-catalog
// rows in snapshot state).
type VolumeID uint64

// VolumeInfo is the public view of a catalog entry.
type VolumeInfo struct {
	ID        VolumeID
	Name      string
	SizeBytes int64
	Medium    uint64
	Snapshot  bool
}

// CreateVolume provisions a thin volume of sizeBytes (rounded up to a
// sector multiple). The volume's medium covers its whole range with no
// underlay: unwritten reads return zeros.
func (a *Array) CreateVolume(at sim.Time, name string, sizeBytes int64) (VolumeID, sim.Time, error) {
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	sectors := (uint64(sizeBytes) + cblock.SectorSize - 1) / cblock.SectorSize
	if sectors == 0 {
		return 0, at, fmt.Errorf("core: volume %q has zero size", name)
	}
	done, err := a.nameFreeLocked(at, name)
	if err != nil {
		return 0, done, err
	}
	m := a.nextMedium
	a.nextMedium++
	v := a.nextVolume
	a.nextVolume++

	_, done, err = a.commitFactsLocked(done, relation.IDMediums, []tuple.Fact{
		relation.MediumRow{Source: m, Start: 0, End: sectors - 1, Target: relation.NoMedium, Status: relation.MediumRW}.Fact(a.seqs.Next()),
	})
	if err != nil {
		return 0, done, err
	}
	_, done, err = a.commitFactsLocked(done, relation.IDVolumes, []tuple.Fact{
		relation.VolumeRow{Volume: v, Medium: m, SizeSectors: sectors, State: relation.VolumeActive, Name: name}.Fact(a.seqs.Next()),
	})
	if err != nil {
		return 0, done, err
	}
	a.provisioned += int64(sectors) * cblock.SectorSize
	done, err = a.maybeBackgroundLocked(done)
	return VolumeID(v), done, err
}

// nameFreeLocked fails with ErrVolumeExists if a live volume or snapshot
// already has the name: OpenVolume resolves by name, so two holders would
// make it ambiguous. A deleted volume's name is free again. Caller holds mu.
func (a *Array) nameFreeLocked(at sim.Time, name string) (sim.Time, error) {
	taken := false
	done, err := a.pyr[relation.IDVolumes].Scan(at, nil, nil, func(f tuple.Fact) bool {
		row := relation.VolumeFromFact(f)
		taken = row.State != relation.VolumeDeleted && row.Name == name
		return !taken
	})
	if err == nil && taken {
		err = fmt.Errorf("%w: %q", ErrVolumeExists, name)
	}
	return done, err
}

// volume fetches a catalog row. Safe with or without mu: catalog changes
// hold world exclusively and mu, so a caller holding either sees a settled
// row. The fact is decoded into a stack buffer, not cloned: VolumeFromFact
// copies what it keeps.
func (a *Array) volume(at sim.Time, id VolumeID) (relation.VolumeRow, sim.Time, error) {
	var buf [8]uint64
	cols := buf[:relation.VolumesSchema.Cols]
	f, ok, done, err := a.pyr[relation.IDVolumes].GetRow(at, []uint64{uint64(id)}, cols)
	if err != nil {
		return relation.VolumeRow{}, done, err
	}
	if !ok {
		return relation.VolumeRow{}, done, ErrNoSuchVolume
	}
	row := relation.VolumeFromFact(f)
	if row.State == relation.VolumeDeleted {
		return row, done, ErrVolumeDeleted
	}
	return row, done, nil
}

// Lookup returns a volume's public info by ID.
func (a *Array) Lookup(at sim.Time, id VolumeID) (VolumeInfo, sim.Time, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	row, done, err := a.volume(at, id)
	if err != nil {
		return VolumeInfo{}, done, err
	}
	return VolumeInfo{
		ID:        VolumeID(row.Volume),
		Name:      row.Name,
		SizeBytes: int64(row.SizeSectors) * cblock.SectorSize,
		Medium:    row.Medium,
		Snapshot:  row.State == relation.VolumeSnapshot,
	}, done, nil
}

// Volumes lists all live volumes and snapshots.
func (a *Array) Volumes(at sim.Time) ([]VolumeInfo, sim.Time, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []VolumeInfo
	done, err := a.pyr[relation.IDVolumes].Scan(at, nil, nil, func(f tuple.Fact) bool {
		row := relation.VolumeFromFact(f)
		if row.State == relation.VolumeDeleted {
			return true
		}
		out = append(out, VolumeInfo{
			ID:        VolumeID(row.Volume),
			Name:      row.Name,
			SizeBytes: int64(row.SizeSectors) * cblock.SectorSize,
			Medium:    row.Medium,
			Snapshot:  row.State == relation.VolumeSnapshot,
		})
		return true
	})
	return out, done, err
}

// Snapshot freezes a volume's current medium and gives the volume a fresh
// RW medium layered on top (§3.4, Figure 6). The snapshot is itself a
// catalog entry pointing at the now-RO medium. O(1) in data moved.
func (a *Array) Snapshot(at sim.Time, id VolumeID, name string) (VolumeID, sim.Time, error) {
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	row, done, err := a.volume(at, id)
	if err != nil {
		return 0, done, err
	}
	if row.State == relation.VolumeSnapshot {
		return 0, done, fmt.Errorf("core: cannot snapshot a snapshot; clone it")
	}
	if done, err = a.nameFreeLocked(done, name); err != nil {
		return 0, done, err
	}
	oldM := row.Medium
	newM := a.nextMedium
	a.nextMedium++
	snapID := a.nextVolume
	a.nextVolume++

	var mediumFacts []tuple.Fact
	// Freeze every row of the old medium.
	done, err = a.pyr[relation.IDMediums].Scan(done, []uint64{oldM, 0}, []uint64{oldM, ^uint64(0)}, func(f tuple.Fact) bool {
		r := relation.MediumFromFact(f)
		r.Status = relation.MediumRO
		mediumFacts = append(mediumFacts, r.Fact(a.seqs.Next()))
		return true
	})
	if err != nil {
		return 0, done, err
	}
	// New RW leaf layered on the frozen medium.
	mediumFacts = append(mediumFacts, relation.MediumRow{
		Source: newM, Start: 0, End: row.SizeSectors - 1,
		Target: oldM, TargetOff: 0, Status: relation.MediumRW,
	}.Fact(a.seqs.Next()))
	if _, done, err = a.commitFactsLocked(done, relation.IDMediums, mediumFacts); err != nil {
		return 0, done, err
	}

	volFacts := []tuple.Fact{
		relation.VolumeRow{Volume: snapID, Medium: oldM, SizeSectors: row.SizeSectors, State: relation.VolumeSnapshot, Name: name}.Fact(a.seqs.Next()),
		relation.VolumeRow{Volume: row.Volume, Medium: newM, SizeSectors: row.SizeSectors, State: relation.VolumeActive, Name: row.Name}.Fact(a.seqs.Next()),
	}
	if _, done, err = a.commitFactsLocked(done, relation.IDVolumes, volFacts); err != nil {
		return 0, done, err
	}
	done, err = a.maybeBackgroundLocked(done)
	return VolumeID(snapID), done, err
}

// Clone creates a new writable volume backed by a snapshot's medium.
// Hundreds of clones share one set of cblocks until they diverge (§5.3).
func (a *Array) Clone(at sim.Time, snapID VolumeID, name string) (VolumeID, sim.Time, error) {
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	row, done, err := a.volume(at, snapID)
	if err != nil {
		return 0, done, err
	}
	if row.State != relation.VolumeSnapshot {
		return 0, done, fmt.Errorf("core: clone source %d is not a snapshot", snapID)
	}
	if done, err = a.nameFreeLocked(done, name); err != nil {
		return 0, done, err
	}
	newM := a.nextMedium
	a.nextMedium++
	v := a.nextVolume
	a.nextVolume++

	if _, done, err = a.commitFactsLocked(done, relation.IDMediums, []tuple.Fact{
		relation.MediumRow{
			Source: newM, Start: 0, End: row.SizeSectors - 1,
			Target: row.Medium, TargetOff: 0, Status: relation.MediumRW,
		}.Fact(a.seqs.Next()),
	}); err != nil {
		return 0, done, err
	}
	if _, done, err = a.commitFactsLocked(done, relation.IDVolumes, []tuple.Fact{
		relation.VolumeRow{Volume: v, Medium: newM, SizeSectors: row.SizeSectors, State: relation.VolumeActive, Name: name}.Fact(a.seqs.Next()),
	}); err != nil {
		return 0, done, err
	}
	a.provisioned += int64(row.SizeSectors) * cblock.SectorSize
	done, err = a.maybeBackgroundLocked(done)
	return VolumeID(v), done, err
}

// Delete removes a volume or snapshot. The leaf medium of a volume is
// exclusively owned, so its facts are elided immediately — one predicate
// deletes every address mapping (§4.10). Shared interior mediums are left
// to the garbage collector's unreferenced-medium pass.
func (a *Array) Delete(at sim.Time, id VolumeID) (sim.Time, error) {
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	row, done, err := a.volume(at, id)
	if err != nil {
		return done, err
	}
	if _, done, err = a.commitFactsLocked(done, relation.IDVolumes, []tuple.Fact{
		relation.VolumeRow{Volume: row.Volume, Medium: row.Medium, SizeSectors: row.SizeSectors, State: relation.VolumeDeleted, Name: row.Name}.Fact(a.seqs.Next()),
	}); err != nil {
		return done, err
	}
	if row.State == relation.VolumeActive {
		a.provisioned -= int64(row.SizeSectors) * cblock.SectorSize
		// The RW leaf is exclusive: elide it now.
		if done, err = a.elideMediumLocked(done, row.Medium); err != nil {
			return done, err
		}
	}
	return a.maybeBackgroundLocked(done)
}

// elideMediumLocked atomically deletes every address-map and medium-table
// fact of a medium with two range predicates. Caller holds mu.
func (a *Array) elideMediumLocked(at sim.Time, m uint64) (sim.Time, error) {
	maxSeq := a.seqs.Current()
	rows := []relation.ElideRow{
		{Table: relation.IDAddrs, Col: 0, Lo: m, Hi: m, MaxSeq: maxSeq},
		{Table: relation.IDMediums, Col: 0, Lo: m, Hi: m, MaxSeq: maxSeq},
	}
	facts := make([]tuple.Fact, len(rows))
	for i, r := range rows {
		facts[i] = r.Fact(a.seqs.Next())
	}
	_, done, err := a.commitFactsLocked(at, relation.IDElide, facts)
	return done, err
}
