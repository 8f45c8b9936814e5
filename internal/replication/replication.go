// Package replication implements asynchronous off-site replication
// (§1, §3 of the paper): snapshot-anchored, incremental, and driven purely
// by metadata diffs. Each sync round snapshots the source volume, computes
// the sectors changed since the previous round's snapshot from the medium
// chain (no data comparison), ships only those extents over a modelled WAN
// link, and applies them to the target volume.
package replication

import (
	"errors"
	"fmt"

	"purity/internal/cblock"
	"purity/internal/core"
	"purity/internal/sim"
)

// Link models the replication network.
type Link struct {
	RTT     sim.Time // per-round-trip setup cost
	PerByte sim.Time // transfer cost per byte
}

// DefaultLink is a ~1 Gb/s WAN with 20 ms RTT.
func DefaultLink() Link {
	return Link{RTT: 20 * sim.Millisecond, PerByte: 8} // 8 ns/B ≈ 1 Gb/s
}

// Pair replicates one volume from a source array to a target array.
type Pair struct {
	Src, Dst *core.Array
	Link     Link

	srcVol   core.VolumeID
	dstVol   core.VolumeID
	lastSnap core.VolumeID // previous round's source snapshot
	rounds   int
}

// NewPair sets up replication of srcVol; the destination volume is created
// on the target array with the same size.
func NewPair(at sim.Time, src, dst *core.Array, srcVol core.VolumeID, link Link) (*Pair, sim.Time, error) {
	info, done, err := src.Lookup(at, srcVol)
	if err != nil {
		return nil, done, err
	}
	dstVol, done2, err := dst.CreateVolume(done, info.Name+"-replica", info.SizeBytes)
	if err != nil {
		return nil, done2, err
	}
	return &Pair{Src: src, Dst: dst, Link: link, srcVol: srcVol, dstVol: dstVol}, done2, nil
}

// Report describes one sync round.
type Report struct {
	Round        int
	Snapshot     core.VolumeID
	Extents      int
	ShippedBytes int64
	LinkTime     sim.Time
	Total        sim.Time
}

// Sync runs one replication round. The returned completion time includes
// snapshotting, diffing, reading, link transfer and target writes; source
// I/O continues unimpeded in the real system (this model serializes for
// determinism).
func (p *Pair) Sync(at sim.Time) (Report, sim.Time, error) {
	rep := Report{Round: p.rounds + 1}
	snap, done, err := p.Src.Snapshot(at, p.srcVol, fmt.Sprintf("repl-%d", rep.Round))
	if err != nil {
		return rep, done, err
	}
	rep.Snapshot = snap

	ranges, done, err := p.Src.ChangedExtents(done, snap, p.lastSnap)
	if err != nil {
		return rep, done, err
	}
	rep.Extents = len(ranges)

	linkStart := done
	done += p.Link.RTT
	for _, r := range ranges {
		n := int(r.Sectors) * cblock.SectorSize
		data, d, err := p.Src.ReadAt(done, snap, int64(r.Sector)*cblock.SectorSize, n)
		if err != nil {
			return rep, d, err
		}
		done = d + sim.Time(int64(p.Link.PerByte)*int64(n))
		rep.ShippedBytes += int64(n)
		if done, err = p.Dst.WriteAt(done, p.dstVol, int64(r.Sector)*cblock.SectorSize, data); err != nil {
			return rep, done, err
		}
	}
	rep.LinkTime = done - linkStart
	rep.Total = done - at

	// Retire the previous anchor snapshot; the new one becomes the anchor.
	if p.lastSnap != 0 {
		if done, err = p.Src.Delete(done, p.lastSnap); err != nil {
			return rep, done, err
		}
	}
	p.lastSnap = snap
	p.rounds++
	return rep, done, nil
}

// Verify compares the source snapshot and target volume byte for byte —
// test and demo support, not part of the replication protocol.
func (p *Pair) Verify(at sim.Time) (sim.Time, error) {
	if p.lastSnap == 0 {
		return at, errors.New("replication: no completed round to verify")
	}
	info, done, err := p.Src.Lookup(at, p.lastSnap)
	if err != nil {
		return done, err
	}
	const chunk = 256 << 10
	for off := int64(0); off < info.SizeBytes; off += chunk {
		n := chunk
		if off+int64(n) > info.SizeBytes {
			n = int(info.SizeBytes - off)
		}
		a, d, err := p.Src.ReadAt(done, p.lastSnap, off, n)
		if err != nil {
			return d, err
		}
		b, d2, err := p.Dst.ReadAt(d, p.dstVol, off, n)
		if err != nil {
			return d2, err
		}
		done = d2
		for i := range a {
			if a[i] != b[i] {
				return done, fmt.Errorf("replication: divergence at byte %d", off+int64(i))
			}
		}
	}
	return done, nil
}
