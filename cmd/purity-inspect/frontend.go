package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"purity/internal/client"
	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/server"
	"purity/internal/wire"
)

// inspectFrontend is the guided tour of the tagged pipelined front end: an
// in-process array served over real loopback TCP, driven first by
// well-behaved pipelined initiators, then by a rogue one that commits every
// protocol violation the wire layer classifies — and the stats document,
// with the health counters that each probe moved.
func inspectFrontend(drives int) {
	cfg := core.DefaultConfig()
	cfg.Shelf.Drives = drives
	cfg.Shelf.DriveConfig.Capacity = 128 << 20
	pair, err := controller.NewPair(controller.DefaultConfig(), cfg)
	check(err)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer l.Close()
	srv := server.NewWithConfig(pair, controller.Primary, server.Config{
		Workers: 4, QueueDepth: 32, TenantWindow: 8,
	})
	go srv.Serve(l)
	addr := l.Addr().String()

	fmt.Println("=== phase 1: pipelined workload (1 connection, 16 in-flight goroutines) ===")
	c, err := client.DialPipelined(addr)
	check(err)
	vol, err := c.CreateVolume("frontend-demo", 16<<20)
	check(err)
	const workers = 16
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8192)
			off := int64(i) * 8192
			for j := 0; j < 64; j++ {
				check(c.WriteAt(vol, off, buf))
				_, err := c.ReadAt(vol, off, len(buf))
				check(err)
			}
		}()
	}
	wg.Wait()
	fmt.Printf("%d ops in %v over one connection\n", workers*64*2, time.Since(start).Round(time.Millisecond))

	fmt.Println("\n=== phase 2: adversarial probes ===")
	// Oversized read request: structured CodeTooLarge, connection survives.
	_, err = c.ReadAt(vol, 0, wire.MaxReadLen+1)
	var re *wire.RemoteError
	if errors.As(err, &re) {
		fmt.Printf("oversized read  -> code=%d %q (connection still usable)\n", re.Code, re.Msg)
	}
	if _, err := c.ListVolumes(); err != nil {
		check(err)
	}
	check(c.Close())

	// Duplicate tag: the server answers once, then kills the connection.
	probe := func(name string, raw []byte) {
		conn, err := net.Dial("tcp", addr)
		check(err)
		_, err = conn.Write(raw)
		check(err)
		// Let the server consume the probe, abandon the connection, then
		// give it a beat to classify the failure before reading counters.
		time.Sleep(50 * time.Millisecond)
		check(conn.Close())
		time.Sleep(50 * time.Millisecond)
		fmt.Printf("sent %-18s -> %s\n", name, srv.Frontend().Summary())
	}
	hello := taggedFrame(wire.OpHello, 0, wire.EncodeHello(wire.ProtoTagged, 0, false))
	dup := append(append(append([]byte{}, hello...),
		taggedFrame(wire.OpListVolumes, 7, nil)...),
		taggedFrame(wire.OpListVolumes, 7, nil)...)
	probe("duplicate tag", dup)
	probe("oversized frame", []byte{0xff, 0xff, 0xff, 0xff})
	probe("zero-length frame", []byte{0, 0, 0, 0})
	probe("non-hello first", taggedFrame(wire.OpListVolumes, 1, nil))
	probe("torn frame", []byte{64, 0, 0, 0, 5, 1, 2})

	fmt.Println("\n=== stats document ===")
	printStats(pair.Array(), srv.Frontend())
}

// taggedFrame renders one frame to bytes.
func taggedFrame(op byte, tag uint32, payload []byte) []byte {
	var b bytes.Buffer
	check(wire.WriteTaggedFrame(&b, op, tag, payload))
	return b.Bytes()
}
