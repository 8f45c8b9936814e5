package server

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"

	"purity/internal/client"
	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/sim"
)

// startPair brings up active-active servers on loopback and returns clients
// for both ports.
func startPair(t *testing.T) (*client.Client, *client.Client, *controller.Pair) {
	t.Helper()
	pair, err := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dial := func(via controller.Role) *client.Client {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go New(pair, via).Serve(l)
		c, err := client.DialPipelined(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return dial(controller.Primary), dial(controller.Secondary), pair
}

func TestEndToEndOverTCP(t *testing.T) {
	prim, sec, _ := startPair(t)

	id, err := prim.CreateVolume("net-vol", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128<<10)
	sim.NewRand(1).Bytes(data)
	if err := prim.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}

	// Active-active: the secondary port serves the same volumes.
	got, err := sec.ReadAt(id, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("secondary port returned wrong data")
	}

	// Snapshot + clone over the wire.
	snap, err := sec.Snapshot(id, "s")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := prim.Clone(snap, "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := prim.WriteAt(cl, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	got, err = prim.ReadAt(snap, 0, 4096)
	if err != nil || !bytes.Equal(got, data[:4096]) {
		t.Fatal("snapshot disturbed over the wire")
	}

	// Listing and name resolution.
	vols, err := prim.ListVolumes()
	if err != nil || len(vols) != 3 {
		t.Fatalf("ListVolumes = %d, %v", len(vols), err)
	}
	oid, size, err := sec.OpenVolume("net-vol")
	if err != nil || oid != id || size != 4<<20 {
		t.Fatalf("OpenVolume = %d/%d, %v", oid, size, err)
	}
	if _, _, err := sec.OpenVolume("nope"); err == nil {
		t.Fatal("missing volume resolved")
	}

	// Maintenance ops.
	if err := prim.Flush(); err != nil {
		t.Fatal(err)
	}
	gc, err := prim.GC()
	if err != nil {
		t.Fatal(err)
	}
	var rep core.GCReport
	if err := json.Unmarshal([]byte(gc), &rep); err != nil {
		t.Fatalf("OpGC reply %q is not a GCReport: %v", gc, err)
	}
	doc := fetchStats(t, prim)
	if w := doc.Engine.Writes; w != 2 {
		t.Fatalf("engine.Writes = %d, want the 2 writes issued over the wire", w)
	}
	if n := doc.Frontend["Conns"]; n != 1 {
		t.Fatalf("frontend.Conns = %d, want 1 (one connection per port)", n)
	}

	// Deletion and error propagation.
	if err := prim.Delete(cl); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.ReadAt(cl, 0, 4096); err == nil {
		t.Fatal("read of deleted volume succeeded over the wire")
	}
}

// TestDuplicateVolumeNameOverWire is `purity-cli create vol0` run twice: the
// second create gets an error response on a connection that stays usable,
// name resolution still finds the one volume, and the refusal is an
// application error, not a wire fault.
func TestDuplicateVolumeNameOverWire(t *testing.T) {
	s, addr := startServer(t, Config{})
	c, err := client.DialPipelined(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.CreateVolume("vol0", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateVolume("vol0", 1<<20)
	if err == nil || !strings.Contains(err.Error(), core.ErrVolumeExists.Error()) {
		t.Fatalf("second create of vol0: %v, want %q", err, core.ErrVolumeExists)
	}
	if _, err := c.Snapshot(id, "vol0"); err == nil {
		t.Fatal("snapshot took a live volume's name")
	}
	vols, err := c.ListVolumes()
	if err != nil || len(vols) != 1 {
		t.Fatalf("ListVolumes = %d, %v; want the one vol0", len(vols), err)
	}
	if oid, _, err := c.OpenVolume("vol0"); err != nil || oid != id {
		t.Fatalf("OpenVolume(vol0) = %d, %v; want %d", oid, err, id)
	}
	if n := s.Frontend().MalformedFrames.Load(); n != 0 {
		t.Fatalf("frames malformed = %d after a refused create", n)
	}
}

func TestServerRejectsGarbageOpcode(t *testing.T) {
	prim, _, _ := startPair(t)
	// The client never sends bad opcodes; poke the server directly.
	_ = prim
	pair, _ := controller.NewPair(controller.DefaultConfig(), core.TestConfig())
	s := New(pair, controller.Primary)
	if _, err := s.dispatch(nil, 0xff, nil); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	// Truncated payloads error rather than panic.
	if _, err := s.dispatch(nil, 1, []byte{1, 2}); err == nil {
		t.Fatal("truncated payload accepted")
	}
}
