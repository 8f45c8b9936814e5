// Database consolidation: the paper's most common deployment (§5.2) — many
// independent database instances on one array. Each "database" gets a
// volume; pages compress; nightly snapshots are free; dropping a retired
// instance reclaims space through elision and GC.
package main

import (
	"fmt"
	"log"

	"purity"
	"purity/internal/core"
	"purity/internal/workload"
)

func main() {
	arr, err := purity.New(purity.WithDrives(11), purity.WithDriveCapacity(192<<20))
	if err != nil {
		log.Fatal(err)
	}
	eng := arr.Core()

	// Provision a dozen database instances and load each with structured
	// pages (the workload generator mimics row-organized table data).
	const instances = 12
	const dbBytes = 12 << 20
	vols := make([]*purity.Volume, instances)
	for i := range vols {
		v, err := arr.CreateVolume(fmt.Sprintf("pgsql-%02d", i), 64<<20)
		if err != nil {
			log.Fatal(err)
		}
		vols[i] = v
		if _, err := workload.Prefill(eng, v.ID(), dbBytes, 32<<10, workload.ClassDatabase, uint64(i+1), arr.Elapsed()); err != nil {
			log.Fatal(err)
		}
	}
	st := arr.Stats()
	fmt.Printf("%d databases loaded: %d MiB logical -> %d MiB flash (%.1fx reduction)\n",
		instances, st.LogicalBytes>>20, st.PhysicalBytes>>20, st.ReductionRatio)

	// Nightly snapshots: O(1) per instance, no data copied.
	for i, v := range vols {
		if _, err := v.Snapshot(fmt.Sprintf("pgsql-%02d.nightly", i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("snapshots of all %d instances taken in %v simulated time total\n", instances, arr.Elapsed())

	// Retire two instances: elision deletes their address maps with one
	// predicate each; GC returns the segments.
	if err := vols[0].Delete(); err != nil {
		log.Fatal(err)
	}
	if err := vols[1].Delete(); err != nil {
		log.Fatal(err)
	}
	if err := arr.Flush(); err != nil {
		log.Fatal(err)
	}
	before := arr.Stats().FreeAUs
	rep, err := arr.GC()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after deleting 2 instances: GC reclaimed %d segments (%d -> %d free AUs), elided %d mediums\n",
		rep.SegmentsReclaimed, before, arr.Stats().FreeAUs, rep.MediumsElided)

	// The survivors are untouched.
	v5 := vols[5]
	probe, err := v5.ReadAt(0, 32<<10)
	if err != nil {
		log.Fatal(err)
	}
	gen := workload.NewGen(6, workload.ClassDatabase)
	gen.Instance = uint64(v5.ID())
	want := make([]byte, 32<<10)
	gen.Fill(want, 0)
	fmt.Printf("surviving instance intact: %v\n", string(probe[:16]) == string(want[:16]))

	fmt.Printf("read latency:  %s\n", arr.Stats().ReadLatency.Summary())
	fmt.Printf("write latency: %s\n", arr.Stats().WriteLatency.Summary())
	_ = core.VolumeID(0)
}
