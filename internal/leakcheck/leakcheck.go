// Package leakcheck fails a package's tests when a goroutine the module
// started outlives them. The paper's availability argument (§4.3) needs a
// controller's front end to drain on shutdown and hand over on failover,
// and neither works if a goroutine it started cannot be joined: a monitor
// loop with no exit, a writer parked on a channel nobody closes, a reader
// blocked on a socket nobody expires.
//
// A package opts in with one TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After the tests pass, Main waits up to a fixed grace period for every
// goroutine that has a frame in the module (a function under "purity/")
// to exit, and otherwise prints each survivor's stack and fails the test
// binary. It is the check-time pattern of uber-go/goleak's VerifyTestMain,
// with the standard library only.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long goroutines get to finish exiting after the last test
// returns: a drained connection's reader and writer, a stopped ticker's
// loop.
const grace = 5 * time.Second

// Main runs the tests and exits with their status, or with 1 when they
// passed but a module goroutine outlived them.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := scan(grace); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: leaked %d goroutines after the tests passed:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// scan polls the goroutine dump until no goroutine other than the caller's
// has a module frame, or until wait has passed; it returns the stacks of
// those still left.
func scan(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		leaked := moduleGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// moduleGoroutines returns the stack of every goroutine but the caller's
// with a frame under "purity/". A dump lists the caller's goroutine first
// and separates goroutines by a blank line; a frame's function name starts
// its line, so a "created by purity/..." line alone does not count.
func moduleGoroutines() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, "\npurity/") {
			out = append(out, g)
		}
	}
	return out
}
