package main

import (
	"fmt"
	"io"
	"net"
	"time"
)

// Host speed. The hosts this benchmark runs on share their cores with other
// guests: identical work takes up to half again as long from one minute to
// the next, and the guest cannot see why. Every piece of work whose wall time
// becomes an end-to-end metric is therefore bracketed by runs of a reference
// kernel, a fixed amount of benchmark-owned work on the same goroutine, and
// its wall time is divided by how much slower than nominal the kernel ran.
// The kernel has two halves, because the host slows them differently and the
// storage stack is made of both: arithmetic on a core, and system calls plus
// goroutine wake-ups (round trips over a loopback connection). README.md,
// "Host speed", has the measurements behind this.

const (
	refIterations = 4_000_000
	refRoundTrips = 1000
	// What the halves take on the baseline host at its fastest.
	refNominalALU  = 8300 * time.Microsecond
	refNominalEcho = 7700 * time.Microsecond
)

// reference runs the reference kernel. Each goroutine that times work owns
// one; close stops its echo goroutine.
type reference struct {
	work   int // the kernel does 1/work of its nominal work: 1, or more at smoke scale
	conn   net.Conn
	echoed chan struct{} // closed when the echo goroutine has exited
	buf    []byte
	sink   uint64
	err    error // the first failure of the loopback half
}

func newReference(work int) (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	ref := &reference{work: work, echoed: make(chan struct{}), buf: make([]byte, 512)}
	go func() {
		defer close(ref.echoed)
		c, err := ln.Accept()
		//lint:ignore errdrop the listener has served its one connection
		ln.Close()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(ref.buf))
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	ref.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		//lint:ignore errdrop unblocks Accept so that the echo goroutine exits
		ln.Close()
		<-ref.echoed
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	return ref, nil
}

func (ref *reference) close() {
	//lint:ignore errdrop closing the loopback connection is what stops the echo goroutine
	ref.conn.Close()
	<-ref.echoed
}

// run executes the kernel once and returns the host's slowdown: 1 when both
// halves took their nominal time.
func (ref *reference) run() float64 {
	t0 := time.Now()
	var tab [512]uint64
	a, b, c, d := uint64(1), uint64(2), uint64(3), ref.sink
	for i := 0; i < refIterations/ref.work; i++ {
		a = a*0x9e3779b97f4a7c15 + 1
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c = c*0xbf58476d1ce4e5b9 ^ (c >> 29)
		d += tab[(a>>55)&511] ^ b
		tab[(c>>55)&511] = d
	}
	ref.sink = a + b + c + d
	t1 := time.Now()
	if ref.err == nil {
		ref.err = ref.conn.SetDeadline(t1.Add(30 * time.Second))
	}
	for i := 0; i < refRoundTrips/ref.work && ref.err == nil; i++ {
		if _, ref.err = ref.conn.Write(ref.buf); ref.err == nil {
			_, ref.err = io.ReadFull(ref.conn, ref.buf)
		}
	}
	alu, echo := t1.Sub(t0), time.Since(t1)
	return float64(ref.work) * (float64(alu)/float64(refNominalALU) + float64(echo)/float64(refNominalEcho)) / 2
}

// timed runs fn between two runs of the kernel and returns fn's wall time and
// the host's slowdown while it ran.
func (ref *reference) timed(fn func()) (wall time.Duration, slow float64) {
	before := ref.run()
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	return wall, (before + ref.run()) / 2
}
