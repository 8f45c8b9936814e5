// Command purity-server runs a Purity array and serves its volumes over the
// wire protocol on two ports — one per controller, in the paper's
// active-active arrangement (clients may use either; the secondary forwards
// internally).
//
// Usage:
//
//	purity-server [-primary :7005] [-secondary :7006] [-drives 11] [-drive-mib 256]
//	              [-workers 4] [-queue-depth 64] [-tenant-window 32] [-inflight-mib 64]
//	              [-heartbeat 250ms] [-silence 2s]
//
// The primary's server publishes a heartbeat; the secondary's monitor takes
// over (recovery from the shared shelf, then fencing) after -silence of
// quiet. Clients using the HA initiator follow the failover transparently.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/server"
)

func main() {
	primaryAddr := flag.String("primary", "127.0.0.1:7005", "primary controller listen address")
	secondaryAddr := flag.String("secondary", "127.0.0.1:7006", "secondary controller listen address")
	drives := flag.Int("drives", 11, "SSDs in the shelf (paper: 11-24)")
	driveMiB := flag.Int64("drive-mib", 256, "capacity per drive, MiB")
	noDedup := flag.Bool("no-dedup", false, "disable inline deduplication")
	noCompress := flag.Bool("no-compress", false, "disable inline compression")
	lanes := flag.Int("lanes", 4, "commit lanes writes shard across by volume (1 = every volume on one lane)")
	workers := flag.Int("workers", 4, "per-connection dispatch workers (tagged protocol)")
	queueDepth := flag.Int("queue-depth", 64, "per-connection dispatch queue bound")
	tenantWindow := flag.Int("tenant-window", 32, "per-volume in-flight request window per connection")
	inflightMiB := flag.Int64("inflight-mib", 64, "global in-flight payload byte budget, MiB")
	pace := flag.Bool("pace", false, "pace responses to the device model's simulated service time")
	heartbeat := flag.Duration("heartbeat", 250*time.Millisecond, "primary heartbeat interval")
	silence := flag.Duration("silence", 2*time.Second, "heartbeat silence before the secondary takes over")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Shelf.Drives = *drives
	cfg.Shelf.DriveConfig.Capacity = *driveMiB << 20
	cfg.DedupEnabled = !*noDedup
	cfg.CompressionEnabled = !*noCompress
	cfg.CommitLanes = *lanes

	pair, err := controller.NewPair(controller.DefaultConfig(), cfg)
	if err != nil {
		log.Fatalf("format: %v", err)
	}
	fmt.Printf("purity-server: %d drives x %d MiB (raw %d MiB), dedup=%v compress=%v lanes=%d\n",
		*drives, *driveMiB, int64(*drives)**driveMiB, !*noDedup, !*noCompress, *lanes)
	srvCfg := server.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		TenantWindow:     *tenantWindow,
		MaxInflightBytes: *inflightMiB << 20,
		Pace:             *pace,
	}
	fmt.Printf("purity-server: front end workers=%d queue=%d tenant-window=%d inflight=%d MiB\n",
		*workers, *queueDepth, *tenantWindow, *inflightMiB)

	serve := func(addr string, via controller.Role, label string) *server.Server {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			log.Fatalf("listen %s: %v", addr, err)
		}
		fmt.Printf("purity-server: %s controller on %s\n", label, l.Addr())
		s := server.NewWithConfig(pair, via, srvCfg)
		go func() {
			if err := s.Serve(l); err != nil {
				log.Printf("%s server: %v", label, err)
			}
		}()
		return s
	}
	prim := serve(*primaryAddr, controller.Primary, "primary")
	sec := serve(*secondaryAddr, controller.Secondary, "secondary")

	ha := server.HAConfig{Interval: *heartbeat, Silence: *silence}
	stopBeat := prim.StartBeat(ha)
	defer stopBeat()
	stopMon := sec.StartMonitor(ha)
	defer stopMon()
	fmt.Printf("purity-server: heartbeat %v, takeover after %v of silence\n", *heartbeat, *silence)
	select {} // serve forever
}
