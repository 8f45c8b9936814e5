package chaos

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"purity/internal/telemetry"
)

// pipePair returns two ends of a loopback TCP connection, the client end
// wrapped by the injector.
func pipePair(t *testing.T, inj *Injector) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type acc struct {
		c   net.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := l.Accept()
		ch <- acc{c, err}
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { raw.Close(); a.c.Close() })
	return inj.Conn(raw), a.c
}

// With every probability zero the wrapper is a transparent pipe.
func TestZeroConfigIsTransparent(t *testing.T) {
	inj := New(Config{Seed: 1})
	cl, sv := pipePair(t, inj)
	msg := []byte("hello through chaos")
	if _, err := cl.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(sv, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("got %q", got)
	}
	if s := inj.Stats(); s.Resets.Load()+s.TornWrites.Load()+s.Blackholes.Load() != 0 {
		t.Fatalf("faults injected at zero config: %s", telemetry.Render(s))
	}
}

// A torn write delivers a strict prefix and then kills the connection: the
// peer sees some bytes, then EOF — a frame cut mid-body.
func TestTornWrite(t *testing.T) {
	inj := New(Config{Seed: 3, TearProb: 1})
	cl, sv := pipePair(t, inj)
	msg := make([]byte, 4096)
	n, err := cl.Write(msg)
	if !errors.Is(err, ErrInjected) && err == nil {
		t.Fatalf("torn write returned n=%d err=%v", n, err)
	}
	if n <= 0 || n >= len(msg) {
		t.Fatalf("torn write delivered %d of %d bytes (want strict prefix)", n, len(msg))
	}
	got, rerr := io.ReadAll(sv)
	if len(got) != n {
		t.Fatalf("peer saw %d bytes, writer claims %d (readall err %v)", len(got), n, rerr)
	}
	if inj.Stats().TornWrites.Load() != 1 {
		t.Fatalf("TornWrites = %d", inj.Stats().TornWrites.Load())
	}
}

// A reset closes before any byte leaves.
func TestReset(t *testing.T) {
	inj := New(Config{Seed: 5, ResetProb: 1})
	cl, sv := pipePair(t, inj)
	if _, err := cl.Write([]byte("doomed")); !errors.Is(err, ErrInjected) {
		t.Fatalf("reset write: %v", err)
	}
	if got, _ := io.ReadAll(sv); len(got) != 0 {
		t.Fatalf("peer saw %d bytes after reset", len(got))
	}
	if inj.Stats().Resets.Load() != 1 {
		t.Fatalf("Resets = %d", inj.Stats().Resets.Load())
	}
}

// A blackholed read blocks until the read deadline fires — the timeout
// error is the standard net deadline error, so caller-side deadline logic
// needs no special case.
func TestBlackholeHonorsReadDeadline(t *testing.T) {
	inj := New(Config{Seed: 7, BlackholeProb: 1})
	cl, sv := pipePair(t, inj)
	// Real bytes are on the wire; the blackhole swallows them anyway.
	if _, err := sv.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := cl.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := cl.Read(make([]byte, 16))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blackholed read: %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("blackhole error is not a net timeout: %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("blackhole returned before the deadline")
	}
	if inj.Stats().Blackholes.Load() != 1 {
		t.Fatalf("Blackholes = %d", inj.Stats().Blackholes.Load())
	}
}

// SetDeadline bounds a blackholed read as SetReadDeadline does.
func TestBlackholeHonorsDeadline(t *testing.T) {
	inj := New(Config{Seed: 7, BlackholeProb: 1})
	cl, _ := pipePair(t, inj)
	if err := cl.SetDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := cl.Read(make([]byte, 16)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blackholed read under SetDeadline: %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("blackhole returned before the deadline")
	}
}

// A blackholed read with no deadline unblocks when the connection closes.
func TestBlackholeUnblocksOnClose(t *testing.T) {
	inj := New(Config{Seed: 9, BlackholeProb: 1})
	cl, _ := pipePair(t, inj)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Read(make([]byte, 16))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("blackholed read after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blackholed read did not unblock on close")
	}
}

// Same seed, same call sequence → identical fault decisions: the injector
// is reproducible the way crashpoint sweeps are.
func TestDeterministicPerConnStream(t *testing.T) {
	run := func() []int {
		inj := New(Config{Seed: 11, ResetProb: 0.2, TearProb: 0.2})
		var outcomes []int
		for conn := 0; conn < 4; conn++ {
			cl, _ := pipePair(t, inj)
			for op := 0; op < 8; op++ {
				_, err := cl.Write([]byte("0123456789abcdef"))
				switch {
				case err == nil:
					outcomes = append(outcomes, 0)
				case errors.Is(err, ErrInjected):
					outcomes = append(outcomes, 1)
				default:
					// Post-fault writes on a closed conn.
					outcomes = append(outcomes, 2)
				}
			}
		}
		return outcomes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}
