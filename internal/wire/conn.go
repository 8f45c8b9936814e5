package wire

import (
	"bufio"
	"net"
	"time"

	"purity/internal/lockrank"
)

// Conn is a connection's frame stream: a net.Conn and the ReadBufSize
// buffered reader its frames are read through. It has no Read or Write:
// frames move only through its methods, and each takes its bound as an
// argument and arms that deadline itself, so no read or write of a
// connection can be written without one. A peer that goes silent then
// costs at most the bound, never the goroutine — and with it whatever
// admission slots it holds — for good (§4.3's I/O-timeout discipline).
type Conn struct {
	nc net.Conn
	br *bufio.Reader

	mu      lockrank.Mutex[lockrank.WireConnMu] // orders read arms against Expire
	expired bool                                // Expire ran: every later read fails at once
}

// NewConn wraps nc. Its reads go through the Conn's buffer from now on.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, ReadBufSize)}
}

// wedgeBackstop is the bound a d ≤ 0 arms ("no timeout"): long enough to
// never fire in legitimate traffic, but finite, so even a disabled timeout
// cannot let a dead peer pin a goroutine for the life of the process.
const wedgeBackstop = 24 * time.Hour

func deadline(d time.Duration) time.Time {
	if d <= 0 {
		d = wedgeBackstop
	}
	return time.Now().Add(d)
}

// armRead arms the read deadline d from now, unless Expire has run: then
// Expire's deadline stands. mu keeps an arm from landing between Expire's
// flag and its deadline.
func (c *Conn) armRead(d time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expired {
		return nil
	}
	return c.nc.SetReadDeadline(deadline(d))
}

// ReadHeader starts a frame: it arms the read deadline d once for the whole
// frame, then reads the header into hdr, the caller's scratch. The caller
// reads the payload with ReadPayload before the next header, under the same
// deadline, so a frame that trickles in takes at most d however it is split
// (see readHeader for the errors).
func (c *Conn) ReadHeader(hdr *[HeaderLen]byte, d time.Duration) (op byte, tag uint32, n int, err error) {
	if err := c.armRead(d); err != nil {
		return 0, 0, 0, err
	}
	return readHeader(c.br, hdr)
}

// ReadPayload finishes the frame ReadHeader started, into p, which must be
// exactly the announced length.
func (c *Conn) ReadPayload(p []byte) error { return readPayload(c.br, p) }

// ReadFrame reads one frame under the read deadline d, its payload in a
// buffer of its own; hdr is the caller's scratch, so the header allocates
// nothing.
func (c *Conn) ReadFrame(hdr *[HeaderLen]byte, d time.Duration) (byte, uint32, []byte, error) {
	if err := c.armRead(d); err != nil {
		return 0, 0, nil, err
	}
	return readFrame(c.br, hdr)
}

// WriteFrame sends one frame as one Write under the write deadline d.
func (c *Conn) WriteFrame(op byte, tag uint32, payload []byte, d time.Duration) error {
	if err := c.nc.SetWriteDeadline(deadline(d)); err != nil {
		return err
	}
	return WriteTaggedFrame(c.nc, op, tag, payload)
}

// WriteBuffers sends bufs under the write deadline d as one vectored write
// — a single writev(2) on a TCP connection, because the net.Conn itself is
// what net.Buffers writes to — and consumes bufs. On a partial write the
// stream holds a torn frame: the caller must condemn the connection.
func (c *Conn) WriteBuffers(bufs *net.Buffers, d time.Duration) error {
	if err := c.nc.SetWriteDeadline(deadline(d)); err != nil {
		return err
	}
	ioSync.Add(1) // see ioSync
	_, err := bufs.WriteTo(c.nc)
	return err
}

// Expire fails the read in progress, and every later one, with
// os.ErrDeadlineExceeded; later arms leave the expired deadline in place.
// A frame already in the buffer is still served: a reader that must stop
// at once checks for that itself.
func (c *Conn) Expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expired = true
	//lint:ignore errdrop a conn that cannot take a deadline is closed or closing; its reader fails either way
	c.nc.SetReadDeadline(time.Now())
}

// Close closes the connection; a read or write in progress fails.
func (c *Conn) Close() error { return c.nc.Close() }
