package pyramid

import (
	"container/list"
	"sync"

	"purity/internal/pagecodec"
)

// pageCache is a small LRU of opened pages: checksum verified, dictionaries
// parsed, key columns decoded once on first search, rows decoded on demand
// (pagecodec.Page). Metadata reads dominate the lookup path (§3.1: extra
// reads in exchange for space), so keeping hot index pages open in DRAM is
// what makes medium-chain resolution cheap.
type pageCache struct {
	mu    sync.Mutex
	cap   int
	items map[Ref]*list.Element
	order *list.List // front = hottest

	// last is the element returned by the most recent hit. Dedup probing
	// opens the same hot page many times in a row; checking it first skips
	// the map's struct-key hash on those repeats without altering LRU order.
	last *list.Element
}

type cacheEntry struct {
	ref  Ref
	page *pagecodec.Page
}

func newPageCache(capacity int) *pageCache {
	return &pageCache{
		cap:   capacity,
		items: make(map[Ref]*list.Element),
		order: list.New(),
	}
}

func (c *pageCache) get(ref Ref) (*pagecodec.Page, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.last; el != nil {
		if ent := el.Value.(*cacheEntry); ent.ref == ref {
			c.order.MoveToFront(el)
			return ent.page, true
		}
	}
	el, ok := c.items[ref]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	c.last = el
	return el.Value.(*cacheEntry).page, true
}

func (c *pageCache) put(ref Ref, page *pagecodec.Page) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[ref]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).page = page
		c.last = el
		return
	}
	el := c.order.PushFront(&cacheEntry{ref: ref, page: page})
	c.items[ref] = el
	c.last = el
	for c.order.Len() > c.cap {
		back := c.order.Back()
		if back == c.last {
			c.last = nil
		}
		c.order.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).ref)
	}
}
