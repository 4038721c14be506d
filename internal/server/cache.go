package server

import (
	"container/list"
	"sync"
)

// lru is a small mutex-guarded LRU map: the server's one query cache
// (cacheKey -> *cacheEntry). Hit/miss accounting lives with the caller —
// only the server knows whether a stale entry revalidated or recomputed.
type lru struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

// newLRU returns an LRU holding at most cap entries.
func newLRU(cap int) *lru {
	return &lru{cap: cap, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value for key, marking it most recently used.
func (c *lru) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// PutIf inserts key if absent, evicting the least recently used entry
// when the cache is full; if key is present, the existing value is
// replaced only when replace(existing) says so — the decision runs under
// the cache lock, so a slow writer racing a newer one cannot clobber it
// (the server replaces answers only by strictly newer epoch). Either way
// the entry is marked most recently used.
func (c *lru) PutIf(key string, val any, replace func(existing any) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if replace(el.Value.(*lruEntry).val) {
			el.Value.(*lruEntry).val = val
		}
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
