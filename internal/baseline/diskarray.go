// Package baseline implements the comparison systems of the paper's
// evaluation: a performance-disk array model (Table 1's VNX column), the
// published scale-out key-value deployments of Table 2, and the cost model
// behind Figure 7's five-minute-rule analysis.
package baseline

import (
	"fmt"

	"purity/internal/core"
	"purity/internal/sim"
)

// DiskArrayConfig models an enterprise RAID-10 disk array: many spindles
// behind a controller, no flash. Latency per disk operation is seek +
// rotational delay + transfer; writes cost two disk operations (mirroring).
type DiskArrayConfig struct {
	Disks              int
	SeekTime           sim.Time
	RotationalLatency  sim.Time // half a revolution on average
	TransferPerKiB     sim.Time
	StripeUnit         int // bytes per disk before striping moves on
	ControllerOverhead sim.Time
}

// DefaultDiskArrayConfig is a 15k-RPM performance-disk shelf: ~180 IOPS per
// spindle, the figure behind the paper's §2.2 arithmetic.
func DefaultDiskArrayConfig(disks int) DiskArrayConfig {
	return DiskArrayConfig{
		Disks:              disks,
		SeekTime:           3500 * sim.Microsecond,
		RotationalLatency:  2 * sim.Millisecond,
		TransferPerKiB:     7 * sim.Microsecond, // ~140 MB/s media rate
		StripeUnit:         64 << 10,
		ControllerOverhead: 100 * sim.Microsecond,
	}
}

// DiskArray implements workload.Target with purely modelled timing (no data
// is stored — baselines only produce latency and throughput shapes).
type DiskArray struct {
	cfg  DiskArrayConfig
	busy []sim.Time // per-disk busyUntil
}

// NewDiskArray builds the model.
func NewDiskArray(cfg DiskArrayConfig) *DiskArray {
	return &DiskArray{cfg: cfg, busy: make([]sim.Time, cfg.Disks)}
}

// diskFor routes an offset to its spindle.
func (d *DiskArray) diskFor(off int64) int {
	return int((off / int64(d.cfg.StripeUnit)) % int64(d.cfg.Disks))
}

// op performs one disk operation at the chosen spindle.
func (d *DiskArray) op(at sim.Time, disk int, n int) sim.Time {
	start := sim.Max(at, d.busy[disk])
	service := d.cfg.SeekTime + d.cfg.RotationalLatency +
		sim.Time(int64(d.cfg.TransferPerKiB)*int64((n+1023)/1024))
	done := start + service
	d.busy[disk] = done
	return done
}

// WriteAt models a mirrored write: both copies must land.
func (d *DiskArray) WriteAt(at sim.Time, _ core.VolumeID, off int64, data []byte) (sim.Time, error) {
	at += d.cfg.ControllerOverhead
	primary := d.diskFor(off)
	mirror := (primary + d.cfg.Disks/2) % d.cfg.Disks
	d1 := d.op(at, primary, len(data))
	d2 := d.op(at, mirror, len(data))
	return sim.Max(d1, d2), nil
}

// ReadAt models a read served by one mirror side (the less busy one).
func (d *DiskArray) ReadAt(at sim.Time, _ core.VolumeID, off int64, n int) ([]byte, sim.Time, error) {
	at += d.cfg.ControllerOverhead
	primary := d.diskFor(off)
	mirror := (primary + d.cfg.Disks/2) % d.cfg.Disks
	disk := primary
	if d.busy[mirror] < d.busy[primary] {
		disk = mirror
	}
	return make([]byte, n), d.op(at, disk, n), nil
}

// String describes the model.
func (d *DiskArray) String() string {
	return fmt.Sprintf("RAID-10 disk array, %d x 15k spindles", d.cfg.Disks)
}
