// Package pyramid implements Purity's log-structured merge indexes (§4.8 of
// the paper). Each relation is indexed by a pyramid: recent facts live in a
// DRAM memtable (already durable in NVRAM — the engine commits before
// inserting); Flush writes sorted runs called patches into segments, and
// idempotent merge/flatten operations keep the patch count small.
//
// The monotonic write-ahead discipline of Figure 4 is enforced here: Flush
// takes the sequence number persisted through NVRAM and refuses to write
// newer facts to segments. Patch descriptors are logged into segios so
// recovery can rediscover patches written since the last checkpoint; adding
// a patch twice is harmless (set-union recovery, §4.3).
package pyramid

import (
	"errors"
	"fmt"

	"purity/internal/lockrank"
	"purity/internal/sim"
)

// Ref locates one encoded page inside a segment.
type Ref struct {
	Segment uint64 // layout.SegmentID of the metadata segment
	Off     int64  // segment-logical offset
	Len     int32
}

// PageStore is the pyramid's window onto segment storage. The engine
// implements it over the segment writer/reader; tests use MemStore.
type PageStore interface {
	// WritePage appends an encoded page as segment data and returns its
	// location.
	WritePage(at sim.Time, page []byte) (Ref, sim.Time, error)
	// WriteDescriptor appends a patch descriptor as a segio log record,
	// tagged with the sequence range it covers (for recovery scans).
	WriteDescriptor(at sim.Time, desc []byte, lo, hi uint64) (sim.Time, error)
	// ReadPage fetches a previously written page.
	ReadPage(at sim.Time, ref Ref) ([]byte, sim.Time, error)
}

// MemStore is an in-memory PageStore for unit tests.
type MemStore struct {
	mu          lockrank.Mutex[lockrank.PyramidMemStoreMu]
	pages       map[Ref][]byte
	next        int64
	Descriptors [][]byte
	Reads       int // ReadPage call count, for cache-behaviour tests
	// FailWrites makes writes fail, for error-path tests.
	FailWrites bool
	// Latency is added per operation to exercise timing plumbing.
	Latency sim.Time
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{pages: make(map[Ref][]byte)}
}

var errInjected = errors.New("pyramid: injected store failure")

// WritePage implements PageStore.
func (m *MemStore) WritePage(at sim.Time, page []byte) (Ref, sim.Time, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.FailWrites {
		return Ref{}, at, errInjected
	}
	ref := Ref{Segment: 1, Off: m.next, Len: int32(len(page))}
	m.next += int64(len(page))
	m.pages[ref] = append([]byte(nil), page...)
	return ref, at + m.Latency, nil
}

// WriteDescriptor implements PageStore.
func (m *MemStore) WriteDescriptor(at sim.Time, desc []byte, lo, hi uint64) (sim.Time, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.FailWrites {
		return at, errInjected
	}
	m.Descriptors = append(m.Descriptors, append([]byte(nil), desc...))
	return at + m.Latency, nil
}

// ReadPage implements PageStore.
func (m *MemStore) ReadPage(at sim.Time, ref Ref) ([]byte, sim.Time, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Reads++
	p, ok := m.pages[ref]
	if !ok {
		return nil, at, fmt.Errorf("pyramid: no page at %+v", ref)
	}
	return p, at + m.Latency, nil
}
