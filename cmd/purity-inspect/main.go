// Command purity-inspect builds a demonstration array, runs a small mixed
// workload (volumes, snapshots, clones, deletions, GC), and dumps the
// on-"disk" structures — the volume catalog, the medium table of Figure 6,
// the segment inventory, per-relation index sizes, and elide tables. It is
// the guided tour of Purity's metadata.
//
// With -health it instead tells the drive-failure story: latent corruption
// is injected and scrubbed away, one drive is pulled, replaced and rebuilt,
// and the per-drive health table and the stats document are dumped at the
// end.
//
// With -frontend it tours the tagged pipelined front end: the array is
// served over loopback TCP, pipelined initiators and adversarial probes
// (duplicate tags, oversized/torn/zero-length frames) drive it, and the
// stats document, with its wire-health counters, is dumped.
//
// With -ha it tours end-to-end high availability: two servers share one
// controller pair, an HA initiator writes through chaos-injected
// connections, the primary is killed mid-service, the heartbeat monitor
// takes over, and the session-table / wire / drain telemetry is dumped.
package main

import (
	"flag"
	"fmt"
	"log"

	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/relation"
	"purity/internal/server"
	"purity/internal/sim"
	"purity/internal/telemetry"
	"purity/internal/workload"
)

func main() {
	drives := flag.Int("drives", 11, "SSDs in the shelf")
	lanes := flag.Int("lanes", 4, "commit lanes writes shard across by volume (1 = every volume on one lane)")
	health := flag.Bool("health", false, "run a drive-failure lifecycle and dump drive health, wear and repair counters")
	frontend := flag.Bool("frontend", false, "serve the array over loopback TCP, drive pipelined + adversarial initiators, dump wire-health counters")
	haTour := flag.Bool("ha", false, "tour end-to-end HA: two servers, heartbeat failover mid-workload, chaos-injected HA initiator, session/drain telemetry")
	flag.Parse()

	if *frontend {
		inspectFrontend(*drives)
		return
	}
	if *haTour {
		inspectHA(*drives)
		return
	}

	cfg := core.DefaultConfig()
	cfg.Shelf.Drives = *drives
	cfg.Shelf.DriveConfig.Capacity = 128 << 20
	cfg.CommitLanes = *lanes
	arr, err := core.Format(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *health {
		inspectHealth(arr)
		return
	}

	// A small life story: a database volume, a snapshot, two clones, some
	// divergence, a deletion, and a GC pass.
	now := sim.Time(0)
	db, now, err := arr.CreateVolume(now, "oracle-prod", 64<<20)
	check(err)
	now, err = workload.Prefill(arr, db, 32<<20, 32<<10, workload.ClassDatabase, 1, now)
	check(err)
	snap, now, err := arr.Snapshot(now, db, "oracle-prod.golden")
	check(err)
	test, now, err := arr.Clone(now, snap, "oracle-test")
	check(err)
	dev, now, err := arr.Clone(now, snap, "oracle-dev")
	check(err)
	buf := make([]byte, 32<<10)
	workload.NewGen(9, workload.ClassDatabase).Fill(buf, 0)
	now, err = arr.WriteAt(now, test, 0, buf)
	check(err)
	now, err = arr.Delete(now, dev)
	check(err)
	now, err = arr.FlushAll(now)
	check(err)
	_, now, err = arr.RunGC(now)
	check(err)

	fmt.Println("=== volume catalog ===")
	vols, now, err := arr.Volumes(now)
	check(err)
	fmt.Printf("%-6s %-24s %-10s %-8s %s\n", "ID", "NAME", "SIZE", "MEDIUM", "KIND")
	for _, v := range vols {
		kind := "volume"
		if v.Snapshot {
			kind = "snapshot"
		}
		fmt.Printf("%-6d %-24s %-10d %-8d %s\n", v.ID, v.Name, v.SizeBytes, v.Medium, kind)
	}

	fmt.Println("\n=== medium table (Figure 6) ===")
	fmt.Printf("%-8s %-14s %-8s %-8s %s\n", "Source", "Start:End", "Target", "Offset", "Status")
	now, err = arr.ScanMediums(now, func(r relation.MediumRow) {
		target := fmt.Sprintf("%d", r.Target)
		if r.Target == relation.NoMedium {
			target = "none"
		}
		status := "RO"
		if r.Status == relation.MediumRW {
			status = "RW"
		}
		fmt.Printf("%-8d %d:%-12d %-8s %-8d %s\n", r.Source, r.Start, r.End, target, r.TargetOff, status)
	})
	check(err)

	fmt.Println("\n=== segment inventory ===")
	fmt.Printf("%-6s %-8s %-8s %s\n", "ID", "sealed", "stripes", "AUs")
	for _, s := range arr.Segments() {
		fmt.Printf("%-6d %-8v %-8d %d\n", s.ID, s.Sealed, s.Stripes, s.AUs)
	}

	fmt.Println("\n=== pyramid (LSM) row counts per relation ===")
	for id := uint32(1); id <= 7; id++ {
		fmt.Printf("%-14s %8d rows\n", relation.Names[id], arr.RelationRows(id))
	}
	fmt.Printf("\nelide ranges: address map %d, mediums %d\n",
		arr.ElideTableSize(relation.IDAddrs), arr.ElideTableSize(relation.IDMediums))

	fmt.Println("\n=== stats document ===")
	printStats(arr, nil, nil)
}

// inspectHealth runs the drive-failure lifecycle — latent corruption,
// scrub, a pulled drive, replacement and online rebuild — then dumps the
// per-drive health table and every repair counter.
func inspectHealth(arr *core.Array) {
	now := sim.Time(0)
	vol, now, err := arr.CreateVolume(now, "health-demo", 64<<20)
	check(err)
	now, err = workload.Prefill(arr, vol, 32<<20, 32<<10, workload.ClassDatabase, 1, now)
	check(err)
	now, err = arr.FlushAll(now)
	check(err)

	injected := arr.InjectBitFlips(7, 24)
	srep, now, err := arr.Scrub(now)
	check(err)
	fmt.Printf("scrub: injected %d bit flips, %d stripes verified, %d bad write units, %d repaired in place\n",
		injected, srep.StripesVerified, srep.BadWriteUnits, srep.WriteUnitsRepaired)

	const victim = 5
	check(arr.Shelf().PullDrive(victim))
	now, err = arr.ReplaceDrive(now, victim)
	check(err)
	rrep, now, err := arr.Rebuild(now, victim)
	check(err)
	fmt.Printf("rebuild drive %d: %d segments, %d write units, %d MiB reconstructed, %d intact\n",
		victim, rrep.SegmentsRebuilt, rrep.WriteUnitsMoved, rrep.BytesMoved>>20, rrep.SkippedIntact)

	// Light read traffic after the lifecycle so the read-path counters show
	// the verified-read machinery at work.
	if _, now, err = arr.ReadAt(now, vol, 0, 8<<20); err != nil {
		check(err)
	}

	st := arr.Stats()
	sh := arr.Shelf()
	fmt.Println("\n=== drive health ===")
	fmt.Printf("%-6s %-12s %-8s %-10s %-10s %-8s %-8s %-8s %s\n",
		"DRIVE", "STATE", "maxwear", "badblocks", "bitflips", "erases", "stalled", "queued", "host MiB r/w")
	for i := 0; i < sh.NumDrives(); i++ {
		ds := sh.Drive(i).Stats()
		fmt.Printf("%-6d %-12s %-8d %-10d %-10d %-8d %-8d %-8d %d/%d\n",
			i, st.DriveStates[i], ds.MaxWear, ds.BadBlocks, ds.BitFlips, ds.Erases,
			ds.StalledReads, ds.QueuedReads, ds.HostBytesRead>>20, ds.HostBytesWritten>>20)
	}

	fmt.Println("\n=== stats document ===")
	printStats(arr, nil, nil)
}

// printStats prints the stats document: the one OpStats serves.
func printStats(arr *core.Array, fe *telemetry.Frontend, sess *controller.Sessions) {
	doc, err := server.StatsDocument(arr, fe, sess)
	check(err)
	fmt.Println(string(doc))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
