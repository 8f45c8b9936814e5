package shelf

import (
	"testing"

	"purity/internal/ssd"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.DriveConfig.Capacity = 16 << 20
	return cfg
}

func TestNewShelf(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumDrives() != 11 {
		t.Fatalf("NumDrives = %d, want 11", s.NumDrives())
	}
	if s.NumNVRAM() != 2 {
		t.Fatalf("NumNVRAM = %d, want 2", s.NumNVRAM())
	}
	// Every drive has the configured capacity and a distinct ID.
	seen := map[string]bool{}
	for _, d := range s.Drives() {
		if d.Capacity() != 16<<20 {
			t.Fatalf("drive %s capacity = %d", d.ID(), d.Capacity())
		}
		if seen[d.ID()] {
			t.Fatalf("duplicate drive ID %s", d.ID())
		}
		seen[d.ID()] = true
	}
}

func TestNewShelfRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Drives = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero drives accepted")
	}
	cfg = smallConfig()
	cfg.NVRAM = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero NVRAM accepted")
	}
	cfg = smallConfig()
	cfg.DriveConfig = ssd.Config{}
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid drive config accepted")
	}
}

func TestPullReinsert(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PullDrive(3); err != nil {
		t.Fatal(err)
	}
	if err := s.PullDrive(7); err != nil {
		t.Fatal(err)
	}
	failed := s.FailedDrives()
	if len(failed) != 2 || failed[0] != 3 || failed[1] != 7 {
		t.Fatalf("FailedDrives = %v", failed)
	}
	if !s.Drive(3).Failed() {
		t.Fatal("drive 3 not failed")
	}
	if err := s.ReinsertDrive(3); err != nil {
		t.Fatal(err)
	}
	if len(s.FailedDrives()) != 1 {
		t.Fatalf("FailedDrives after reinsert = %v", s.FailedDrives())
	}
	if err := s.PullDrive(99); err == nil {
		t.Fatal("pulling nonexistent drive accepted")
	}
	if err := s.ReinsertDrive(-1); err == nil {
		t.Fatal("reinserting nonexistent drive accepted")
	}
}

func TestAggregateStats(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	for i := 0; i < 3; i++ {
		if _, err := s.Drive(i).WriteAt(0, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	agg := s.AggregateStats()
	if agg.HostBytesWritten != 3*4096 {
		t.Fatalf("aggregate HostBytesWritten = %d, want %d", agg.HostBytesWritten, 3*4096)
	}
}

func TestDrivesShareNoWearRNG(t *testing.T) {
	// Distinct seeds: pulling the same workload through two drives must not
	// produce identical wear-failure patterns. We can't observe the RNG
	// directly; assert the seeds differ via config.
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Drive(0).Config().Seed == s.Drive(1).Config().Seed {
		t.Fatal("drives share a wear RNG seed")
	}
}
