package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// parked blocks until release is closed.
func parked(release chan struct{}) { <-release }

// TestScanSeesParkedGoroutine keeps the filter honest: a goroutine parked
// on a channel nobody closes is reported by its function's name, and once
// the channel closes the scan comes back clean.
func TestScanSeesParkedGoroutine(t *testing.T) {
	release := make(chan struct{})
	go parked(release)
	leaked := scan(50 * time.Millisecond)
	if len(leaked) != 1 || !strings.Contains(leaked[0], "leakcheck.parked(") {
		close(release)
		t.Fatalf("scan with one parked goroutine: want it reported as leakcheck.parked, got %d: %q", len(leaked), leaked)
	}
	close(release)
	if leaked := scan(grace); len(leaked) != 0 {
		t.Fatalf("scan after the channel closed: want none, got %q", leaked)
	}
}
