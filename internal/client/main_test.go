package client

import (
	"testing"

	"purity/internal/leakcheck"
)

// TestMain fails the test binary when a goroutine the module started
// outlives the tests (internal/leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
