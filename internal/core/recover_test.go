package core

import (
	"testing"

	"purity/internal/crashpoint"
)

// crashTestConfig returns a config with background work disabled, so the
// only durability of recent writes is their NVRAM records — the setup
// needed to test torn/corrupt trailing-record handling in isolation.
func crashTestConfig(reg *crashpoint.Registry) Config {
	cfg := TestConfig()
	cfg.Crash = reg
	cfg.BackgroundEvery = 1 << 30
	cfg.CheckpointEvery = 1 << 30
	cfg.MemtableFlushRows = 1 << 20
	return cfg
}

// TestTornTailRecovery simulates power loss mid-append: the last NVRAM
// record is torn short on every device. Full recovery through OpenAt must
// drop the torn record (it was never acknowledged) and keep everything
// before it.
func TestTornTailRecovery(t *testing.T) {
	cfg := crashTestConfig(nil)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := a.Shelf()
	vol, now, err := a.CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	acked := pattern(1, 4096)
	if now, err = a.WriteAt(now, vol, 0, acked); err != nil {
		t.Fatal(err)
	}
	// This write's record will be the torn tail: it simulates an append
	// that power loss cut short, so the op is treated as unacknowledged.
	if now, err = a.WriteAt(now, vol, 8192, pattern(2, 4096)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < sh.NumNVRAM(); i++ {
		if kept := sh.NVRAM(i).TornTail(); kept < 1 {
			t.Fatalf("nvram %d: torn tail left %d records", i, kept)
		}
	}

	a2, _, err := OpenAt(cfg, sh, now, false)
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	got, now, err := a2.ReadAt(now, vol, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(acked) {
		t.Fatal("acknowledged write lost after torn-tail recovery")
	}
	got, _, err = a2.ReadAt(now, vol, 8192, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("torn (unacknowledged) write visible after recovery")
		}
	}
}

// TestCorruptTailRecovery is the bit-rot variant: the last record's CRC
// no longer matches. Recovery must discard it and everything after it.
func TestCorruptTailRecovery(t *testing.T) {
	cfg := crashTestConfig(nil)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := a.Shelf()
	vol, now, err := a.CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	acked := pattern(3, 4096)
	if now, err = a.WriteAt(now, vol, 0, acked); err != nil {
		t.Fatal(err)
	}
	if now, err = a.WriteAt(now, vol, 8192, pattern(4, 4096)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < sh.NumNVRAM(); i++ {
		if kept := sh.NVRAM(i).CorruptTail(); kept < 1 {
			t.Fatalf("nvram %d: corrupt tail left %d records", i, kept)
		}
	}

	a2, _, err := OpenAt(cfg, sh, now, false)
	if err != nil {
		t.Fatalf("recovery with corrupt tail: %v", err)
	}
	got, now, err := a2.ReadAt(now, vol, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(acked) {
		t.Fatal("acknowledged write lost after corrupt-tail recovery")
	}
	got, _, err = a2.ReadAt(now, vol, 8192, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("corrupt (unacknowledged) write visible after recovery")
		}
	}
}

// TestCrashDuringRecovery arms a recovery-path crash point, crashes the
// first recovery attempt mid-flight, and verifies a second recovery from
// the same shelf succeeds with all acknowledged data intact — recovery
// itself must be idempotent (it only reads and re-places, it never
// retracts facts).
func TestCrashDuringRecovery(t *testing.T) {
	for _, point := range []string{"recover.ckpt-loaded", "recover.scanned", "recover.replayed"} {
		t.Run(point, func(t *testing.T) {
			reg := crashpoint.New()
			cfg := crashTestConfig(reg)
			a, err := Format(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sh := a.Shelf()
			vol, now, err := a.CreateVolume(0, "v", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			acked := pattern(5, 8192)
			if now, err = a.WriteAt(now, vol, 0, acked); err != nil {
				t.Fatal(err)
			}

			reg.Arm(point, 1)
			crashed := false
			func() {
				defer func() {
					if v := recover(); v != nil {
						if c, ok := crashpoint.AsCrash(v); ok && c.Point == point {
							crashed = true
							return
						}
						panic(v)
					}
				}()
				if _, _, err := OpenAt(cfg, sh, now, false); err != nil {
					t.Errorf("unexpected recovery error: %v", err)
				}
			}()
			if !crashed {
				t.Fatalf("point %s did not fire during recovery", point)
			}

			a2, _, err := OpenAt(cfg, sh, now, false)
			if err != nil {
				t.Fatalf("second recovery after crash at %s: %v", point, err)
			}
			got, _, err := a2.ReadAt(now, vol, 0, 8192)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(acked) {
				t.Fatal("acknowledged write lost after double recovery")
			}
		})
	}
}
