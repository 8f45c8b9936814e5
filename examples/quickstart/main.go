// Quickstart: create an array, provision a thin volume, write and read,
// snapshot, clone, and look at the data-reduction counters.
package main

import (
	"bytes"
	"fmt"
	"log"

	"purity"
)

func main() {
	// An 11-drive array, the paper's smallest shelf. All storage is
	// simulated in RAM; all timings are on a virtual clock.
	arr, err := purity.New(purity.WithDrives(11), purity.WithDriveCapacity(128<<20))
	if err != nil {
		log.Fatal(err)
	}

	// Volumes are thin-provisioned: creating a 1 GiB volume consumes no
	// flash until data arrives.
	vol, err := arr.CreateVolume("quickstart", 1<<30)
	if err != nil {
		log.Fatal(err)
	}

	// Block I/O is sector aligned (512 B), like iSCSI.
	page := bytes.Repeat([]byte("hello, purity! "), 1024)[:8192]
	if err := vol.WriteAt(page, 0); err != nil {
		log.Fatal(err)
	}
	got, err := vol.ReadAt(0, 8192)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back %d bytes, intact=%v\n", len(got), bytes.Equal(got, page))

	// Unwritten space reads as zeros and costs nothing.
	zeros, _ := vol.ReadAt(512<<20, 4096)
	fmt.Printf("unwritten space reads zeros: %v\n", bytes.Equal(zeros, make([]byte, 4096)))

	// Snapshots freeze the volume's medium in O(1); clones layer a new
	// writable medium on top (§3.4 of the paper).
	snap, err := vol.Snapshot("quickstart.v1")
	if err != nil {
		log.Fatal(err)
	}
	clone, err := snap.Clone("quickstart-dev")
	if err != nil {
		log.Fatal(err)
	}
	if err := clone.WriteAt(make([]byte, 4096), 0); err != nil {
		log.Fatal(err)
	}
	orig, _ := snap.ReadAt(0, 4096)
	fmt.Printf("snapshot unchanged under clone writes: %v\n", bytes.Equal(orig, page[:4096]))

	// Inline compression already shrank our very repetitive page.
	st := arr.Stats()
	fmt.Printf("data reduction so far: %.1fx (%d logical bytes -> %d on flash)\n",
		st.ReductionRatio, st.LogicalBytes, st.PhysicalBytes)
	fmt.Printf("write latency: %s\n", st.WriteLatency.Summary())
	fmt.Printf("simulated time elapsed: %v\n", arr.Elapsed())
}
