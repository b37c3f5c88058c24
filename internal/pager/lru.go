package pager

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity least-recently-used block cache. It owns its
// frames and never writes to one: get hands out the resident frame, put
// replaces it, and a replaced or evicted frame is left to the collector, so
// a reader still viewing it keeps its bytes. All methods are safe for
// concurrent use: read ops hit the cache from many goroutines.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *lruEntry
	index    map[BlockID]*list.Element
}

type lruEntry struct {
	id   BlockID
	data []byte
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[BlockID]*list.Element, capacity),
	}
}

// get returns the resident frame, which the caller must not modify.
func (c *lruCache) get(id BlockID) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[id]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).data, true
}

// put makes data, whose ownership passes to the cache, the resident frame.
func (c *lruCache) put(id BlockID, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[id]; ok {
		el.Value.(*lruEntry).data = data
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&lruEntry{id: id, data: data})
	c.index[id] = el
	for c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.index, back.Value.(*lruEntry).id)
	}
}

func (c *lruCache) drop(id BlockID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[id]; ok {
		c.order.Remove(el)
		delete(c.index, id)
	}
}

// clear empties the cache. Used when a batch aborts: blocks flushed before
// the failure were cached with images the abort rolled back on disk.
func (c *lruCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.index = make(map[BlockID]*list.Element, c.capacity)
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
