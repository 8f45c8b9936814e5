package core

import (
	"container/list"
)

// cblockCache is the DRAM cache of decompressed cblocks. Hot-data reads are
// served from it at CPU cost; it is also the state controller cache warming
// ships to the secondary (§4.3).
type cblockCache struct {
	cap   int
	items map[cblockKey]*list.Element
	order *list.List
}

type cblockKey struct {
	segment uint64
	off     int64
}

type cblockEntry struct {
	key     cblockKey
	physLen int // compressed frame length, for cache warming re-reads
	sectors []byte
}

func newCBlockCache(capacity int) *cblockCache {
	return &cblockCache{
		cap:   capacity,
		items: make(map[cblockKey]*list.Element),
		order: list.New(),
	}
}

func (c *cblockCache) lookup(k cblockKey) ([]byte, bool) {
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cblockEntry).sectors, true
}

func (c *cblockCache) add(k cblockKey, physLen int, sectors []byte) {
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cblockEntry).sectors = sectors
		el.Value.(*cblockEntry).physLen = physLen
		return
	}
	el := c.order.PushFront(&cblockEntry{key: k, physLen: physLen, sectors: sectors})
	c.items[k] = el
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cblockEntry).key)
	}
}

// invalidateSegment drops every cached cblock of a segment (called when GC
// reclaims it).
func (c *cblockCache) invalidateSegment(segment uint64) {
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cblockEntry)
		if e.key.segment == segment {
			c.order.Remove(el)
			delete(c.items, e.key)
		}
		el = next
	}
}

// WarmKey names one cached cblock for controller cache warming (§4.3).
type WarmKey struct {
	Segment uint64
	Off     int64
	PhysLen int
}

// keys returns the cached keys, coldest first, for cache warming.
func (c *cblockCache) keys() []WarmKey {
	out := make([]WarmKey, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cblockEntry)
		out = append(out, WarmKey{Segment: e.key.segment, Off: e.key.off, PhysLen: e.physLen})
	}
	return out
}
