package wire

// Conn's contract: every frame read and write is bounded by the deadline
// its caller passes, armed by Conn itself. The tests run over net.Pipe,
// whose deadlines behave like a socket's, and a fake net.Conn that records
// the deadlines it is given.

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// pipe returns a Conn over one end of a net.Pipe and the raw peer end.
func pipe(t *testing.T) (*Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return NewConn(a), b
}

func frameBytes(t *testing.T, op byte, tag uint32, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteTaggedFrame(&b, op, tag, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// timesOut runs op, which is bounded by d, and fails unless it ends in a
// deadline expiry after about d and within slack more. An op still blocked
// at d+slack fails the test at once; the pipe's cleanup then unblocks it.
func timesOut(t *testing.T, what string, d, slack time.Duration, op func() error) {
	t.Helper()
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- op() }()
	select {
	case err := <-done:
		took := time.Since(start)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: err = %v after %v, want os.ErrDeadlineExceeded", what, err, took)
		}
		if took < d*9/10 {
			t.Fatalf("%s: timed out after %v, before its bound %v", what, took, d)
		}
	case <-time.After(d + slack):
		t.Fatalf("%s: still blocked %v into a %v bound", what, d+slack, d)
	}
}

// TestReadFrameTimesOutOnSilentPeer: a peer that never speaks fails the
// read after about d.
func TestReadFrameTimesOutOnSilentPeer(t *testing.T) {
	c, _ := pipe(t)
	const d = 50 * time.Millisecond
	timesOut(t, "ReadFrame from a silent peer", d, time.Second, func() error {
		var hdr [HeaderLen]byte
		_, _, _, err := c.ReadFrame(&hdr, d)
		return err
	})
}

// TestTrickledFrameTimesOutFromItsStart: a peer that sends one byte of a
// frame every d/3 never leaves a socket read waiting as long as d, yet the
// frame fails about d after it began — one arm per frame, not one per read.
func TestTrickledFrameTimesOutFromItsStart(t *testing.T) {
	c, peer := pipe(t)
	const d = 90 * time.Millisecond
	frame := frameBytes(t, OpWrite, 7, bytes.Repeat([]byte{1}, 40)) // ~16 d to send
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for _, b := range frame {
			select {
			case <-stop:
				return
			case <-time.After(d / 3):
			}
			if _, err := peer.Write([]byte{b}); err != nil {
				return
			}
		}
	}()
	timesOut(t, "a frame trickled in a byte every d/3", d, 5*d, func() error {
		var hdr [HeaderLen]byte
		_, _, n, err := c.ReadHeader(&hdr, d)
		if err == nil {
			err = c.ReadPayload(make([]byte, n))
		}
		return err
	})
}

// TestWritesTimeOutOnPeerThatNeverReads: both write paths fail after about
// d when nothing drains the connection.
func TestWritesTimeOutOnPeerThatNeverReads(t *testing.T) {
	const d = 50 * time.Millisecond
	t.Run("WriteFrame", func(t *testing.T) {
		c, _ := pipe(t)
		timesOut(t, "WriteFrame", d, time.Second, func() error {
			return c.WriteFrame(OpRead, 1, []byte("request"), d)
		})
	})
	t.Run("WriteBuffers", func(t *testing.T) {
		c, _ := pipe(t)
		timesOut(t, "WriteBuffers", d, time.Second, func() error {
			bufs := net.Buffers{[]byte("header"), []byte("payload")}
			return c.WriteBuffers(&bufs, d)
		})
	})
}

// TestExpireBeforeReadFailsAtOnce: an Expire that lands before the read
// wins over the read's own long arm.
func TestExpireBeforeReadFailsAtOnce(t *testing.T) {
	c, _ := pipe(t)
	c.Expire()
	done := make(chan error, 1)
	go func() {
		var hdr [HeaderLen]byte
		_, _, _, err := c.ReadFrame(&hdr, time.Hour)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read after Expire: err = %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("read after Expire still blocked after 1 s: its own arm replaced the expired deadline")
	}
}

// TestExpireWakesBlockedRead: Expire during a read armed for an hour wakes
// it.
func TestExpireWakesBlockedRead(t *testing.T) {
	c, _ := pipe(t)
	done := make(chan error, 1)
	go func() {
		var hdr [HeaderLen]byte
		_, _, _, err := c.ReadFrame(&hdr, time.Hour)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read block
	c.Expire()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("blocked read woke with %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Expire did not wake the blocked read")
	}
}

// recordingConn is a net.Conn that records the deadlines it is given.
// Reads see an endless stream of empty OpFlush frames; writes succeed.
type recordingConn struct {
	net.Conn
	mu          sync.Mutex
	read, write []time.Time
}

func (r *recordingConn) Read(p []byte) (int, error) {
	return copy(p, []byte{5, 0, 0, 0, OpFlush, 0, 0, 0, 0}), nil
}

func (r *recordingConn) Write(p []byte) (int, error) { return len(p), nil }

func (r *recordingConn) SetReadDeadline(t time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.read = append(r.read, t)
	return nil
}

func (r *recordingConn) SetWriteDeadline(t time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.write = append(r.write, t)
	return nil
}

// TestNonPositiveBoundArmsBackstop: d ≤ 0 still arms a deadline — the
// backstop — on every read and write path.
func TestNonPositiveBoundArmsBackstop(t *testing.T) {
	rc := &recordingConn{}
	c := NewConn(rc)
	var hdr [HeaderLen]byte
	start := time.Now()
	if _, _, _, err := c.ReadFrame(&hdr, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.ReadHeader(&hdr, -time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(OpFlush, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	bufs := net.Buffers{[]byte("x")}
	if err := c.WriteBuffers(&bufs, -1); err != nil {
		t.Fatal(err)
	}
	end := time.Now()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.read) != 2 || len(rc.write) != 2 {
		t.Fatalf("armed %d read and %d write deadlines, want 2 and 2", len(rc.read), len(rc.write))
	}
	for _, dl := range append(rc.read, rc.write...) {
		if dl.Before(start.Add(wedgeBackstop)) || dl.After(end.Add(wedgeBackstop)) {
			t.Fatalf("deadline %v is not the backstop, %v from now", dl, wedgeBackstop)
		}
	}
}
