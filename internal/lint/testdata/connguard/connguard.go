// Package fixconn is a purity-lint fixture for the connguard rule: every
// // want comment marks a line where the interprocedural deadline analysis
// must report, and the //lint:ignore below proves suppression works. The
// package is loaded only by lint_test.go.
//
// fakeConn is deliberately structural — Read/Write with the io shape plus
// time.Time deadline setters — because connguard keys on shape, not on
// net.Conn by name; the fixture needs no net import.
package fixconn

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"time"
)

type fakeConn struct{ closed bool }

func (fakeConn) Read(p []byte) (int, error)  { return len(p), nil }
func (fakeConn) Write(p []byte) (int, error) { return len(p), nil }

func (fakeConn) SetDeadline(t time.Time) error      { return nil }
func (fakeConn) SetReadDeadline(t time.Time) error  { return nil }
func (fakeConn) SetWriteDeadline(t time.Time) error { return nil }

type sess struct {
	conn fakeConn
}

// BareRead reads with no deadline on any path.
func (s *sess) BareRead(buf []byte) {
	s.conn.Read(buf) // want "no read deadline"
}

// GuardedRead arms first: clean.
func (s *sess) GuardedRead(buf []byte) {
	s.conn.SetReadDeadline(time.Now().Add(time.Second))
	s.conn.Read(buf)
}

// HalfGuarded arms on one branch only — the MUST join demands every path.
func (s *sess) HalfGuarded(buf []byte, slow bool) {
	if slow {
		s.conn.SetReadDeadline(time.Now().Add(time.Second))
	}
	s.conn.Read(buf) // want "no read deadline"
}

// WrongBit arms the read side and then writes.
func (s *sess) WrongBit(buf []byte) {
	s.conn.SetReadDeadline(time.Now().Add(time.Second))
	s.conn.Write(buf) // want "no write deadline"
}

// BothBits: SetDeadline covers read and write at once.
func (s *sess) BothBits(buf []byte) {
	s.conn.SetDeadline(time.Now().Add(time.Second))
	s.conn.Read(buf)
	s.conn.Write(buf)
}

// Disarmed: the zero time.Time clears the deadline again.
func (s *sess) Disarmed(buf []byte) {
	s.conn.SetDeadline(time.Now().Add(time.Second))
	s.conn.SetDeadline(time.Time{})
	s.conn.Read(buf) // want "no read deadline"
}

// readFrame reads its parameter without arming a deadline. The use is not
// reported here: it floats into readFrame's summary and is charged to each
// wedge-prone call site, where the concrete connection is known.
func readFrame(c fakeConn, buf []byte) error {
	_, err := c.Read(buf)
	return err
}

// CallsHelperBare hands an unarmed conn to the reading helper.
func (s *sess) CallsHelperBare(buf []byte) {
	readFrame(s.conn, buf) // want "no read deadline"
}

// CallsHelperGuarded arms before delegating: clean.
func (s *sess) CallsHelperGuarded(buf []byte) {
	s.conn.SetReadDeadline(time.Now().Add(time.Second))
	readFrame(s.conn, buf)
}

// armReader arms its parameter on every path — the touchIdle shape. Its
// summary records the arming, so callers' reads after it are covered.
func armReader(c fakeConn, draining bool) {
	if draining {
		c.SetReadDeadline(time.Now())
		return
	}
	c.SetReadDeadline(time.Now().Add(time.Second))
}

// ArmsThroughHelper relies on armReader's summary: clean.
func (s *sess) ArmsThroughHelper(buf []byte) {
	armReader(s.conn, false)
	s.conn.Read(buf)
}

// ViaReadFull: the stdlib helper reads from its argument.
func (s *sess) ViaReadFull(buf []byte) {
	io.ReadFull(s.conn, buf) // want "no read deadline"
}

// BufferedBare reads through a buffered reader built over the conn. The
// bufio.Reader has no deadline of its own, but the read reaches the socket
// through it: it needs the conn's.
func (s *sess) BufferedBare(buf []byte) {
	br := bufio.NewReader(s.conn)
	io.ReadFull(br, buf) // want "no read deadline"
}

// BufferedGuarded arms the conn under the buffered reader: clean.
func (s *sess) BufferedGuarded(buf []byte) {
	br := bufio.NewReaderSize(s.conn, 4096)
	s.conn.SetReadDeadline(time.Now().Add(time.Second))
	br.Read(buf)
	readFrame2(br, buf)
}

// readFrame2 reads a frame from any reader; its use floats to the caller.
func readFrame2(r io.Reader, buf []byte) error {
	_, err := io.ReadFull(r, buf)
	return err
}

// BufferedThroughHelper hands the buffered reader to a reading helper with
// no deadline on the conn under it.
func (s *sess) BufferedThroughHelper(buf []byte) {
	var br = bufio.NewReader(s.conn)
	readFrame2(br, buf) // want "no read deadline"
}

// VectoredBare sends a batch with no write deadline.
func (s *sess) VectoredBare(bufs net.Buffers) {
	bufs.WriteTo(s.conn) // want "no write deadline"
}

// VectoredGuarded arms the write side first: clean.
func (s *sess) VectoredGuarded(bufs net.Buffers) {
	s.conn.SetWriteDeadline(time.Now().Add(time.Second))
	bufs.WriteTo(s.conn)
}

// QuietBuffer reads from a type that cannot carry a deadline: silent.
func QuietBuffer(buf []byte) {
	var b bytes.Buffer
	b.Read(buf)
	br := bufio.NewReader(&b)
	br.Read(buf)
}

// Suppressed documents the one legitimate exception shape: a read that
// blocks by design and is unblocked by Close from another goroutine.
func (s *sess) Suppressed(buf []byte) {
	//lint:ignore connguard fixture: this read blocks by design and Close unblocks it
	s.conn.Read(buf)
}
