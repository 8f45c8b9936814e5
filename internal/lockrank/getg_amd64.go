package lockrank

import "unsafe"

// getgTLS returns the running goroutine's runtime g, which the amd64
// runtime keeps in thread-local storage (getg_amd64.s): one load.
func getgTLS() unsafe.Pointer

// framePCs returns two return addresses off the frame-pointer chain,
// skipping its caller's frame (getg_amd64.s).
func framePCs() (pc1, pc2 uintptr)

// lockSite is callerPCs on amd64. Called from acquire, it skips acquire's
// frame and returns acquire's return address, into a lock method or the
// code the method was inlined into, and the one above it. It must stay a
// frame of its own for the count to hold.
//
//go:noinline
func lockSite() [2]uintptr {
	pc1, pc2 := framePCs()
	return [2]uintptr{pc1, pc2}
}

// Package-level variables are initialized before any init function runs,
// so checking (lockrank.go) sees the stubs.
var _ = func() bool {
	getg, callerPCs = getgTLS, lockSite
	return true
}()
