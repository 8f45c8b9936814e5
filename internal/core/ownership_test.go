package core

import (
	"bytes"
	"fmt"
	"testing"
)

// TestWriteAtKeepsNoCallerBuffer pins WriteAt's buffer contract: once it
// returns, the array holds nothing of the caller's buffer, so the caller
// may reuse it at once — the server hands WriteAt a slice of a pooled
// request body that the next request overwrites. Every write here goes
// through one scratch buffer that is scribbled on right after WriteAt
// returns; reads must return what was written, live and after a crash
// recovered by OpenAt (which replays the NVRAM records), for a literal
// write, a dedup hit with a literal remainder and a multi-extent write, at
// lanes = 4 with compression on and off.
func TestWriteAtKeepsNoCallerBuffer(t *testing.T) {
	for _, compress := range []bool{true, false} {
		t.Run(fmt.Sprintf("compression=%v", compress), func(t *testing.T) {
			cfg := TestConfig()
			cfg.CommitLanes = 4
			cfg.CompressionEnabled = compress
			a, err := Format(cfg)
			if err != nil {
				t.Fatal(err)
			}
			vol := mustCreate(t, a, "v", 1<<20)
			scratch := make([]byte, 128<<10)
			type written struct {
				off  int64
				data []byte
			}
			var all []written
			write := func(off int64, data []byte) {
				t.Helper()
				b := scratch[:len(data)]
				copy(b, data)
				if _, err := a.WriteAt(0, vol, off, b); err != nil {
					t.Fatal(err)
				}
				for i := range b {
					b[i] = 0xa5 ^ byte(i*7)
				}
				all = append(all, written{off, data})
			}

			literal := pattern(1, 32<<10)
			write(0, literal)
			// A duplicate must be sealed to be a dedup candidate.
			if _, err := a.FlushAll(0); err != nil {
				t.Fatal(err)
			}
			hits := a.Stats().DedupHits
			dupThenNew := append(append([]byte(nil), literal[:16<<10]...), pattern(2, 16<<10)...)
			write(64<<10, dupThenNew)
			if a.Stats().DedupHits == hits {
				t.Fatal("the duplicate half did not dedup: the case is not exercised")
			}
			write(128<<10, pattern(3, 96<<10)) // three 32 KiB extents

			check := func(a *Array, when string) {
				t.Helper()
				for _, w := range all {
					got, _, err := a.ReadAt(0, vol, w.off, len(w.data))
					if err != nil {
						t.Fatalf("%s: read at %d: %v", when, w.off, err)
					}
					if !bytes.Equal(got, w.data) {
						t.Fatalf("%s: the write at %d reads back the scribbled buffer, not what was written", when, w.off)
					}
				}
			}
			check(a, "live")
			a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			check(a2, "after recovery")
		})
	}
}
