package cache

// refCache is the executable specification of Cache: the map of
// pointer-linked entries the paged slot arrays replaced. The
// differential tests hold Cache to it access for access.
type refCache struct {
	budget  int64
	used    int64
	entries map[Key]*refEntry
	// Sentinel-based doubly linked list; head.next is most recent,
	// head.prev is least recent.
	head  refEntry
	stats Stats
}

type refEntry struct {
	key        Key
	size       int64
	prev, next *refEntry
}

func newRefCache(budgetBytes int64) *refCache {
	c := &refCache{budget: budgetBytes, entries: make(map[Key]*refEntry)}
	c.head.prev = &c.head
	c.head.next = &c.head
	return c
}

func (c *refCache) Contains(k Key) bool {
	_, ok := c.entries[k]
	return ok
}

func (c *refCache) unlink(e *refEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *refCache) pushFront(e *refEntry) {
	e.next = c.head.next
	e.prev = &c.head
	c.head.next.prev = e
	c.head.next = e
}

// Access is Cache.Access's specification: a hit refreshes recency and
// adopts a drifted size; a miss loads the record; either way LRU
// records other than the one accessed are evicted past the budget.
func (c *refCache) Access(k Key, size int64) (hit bool) {
	if e, ok := c.entries[k]; ok {
		c.stats.Hits++
		c.unlink(e)
		c.pushFront(e)
		if size != e.size {
			c.used += size - e.size
			e.size = size
			c.evictOverBudget(e)
		}
		return true
	}
	c.stats.Misses++
	c.stats.BytesLoaded += size
	e := &refEntry{key: k, size: size}
	c.entries[k] = e
	c.pushFront(e)
	c.used += size
	c.evictOverBudget(e)
	return false
}

func (c *refCache) evictOverBudget(keep *refEntry) {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		victim := c.head.prev
		if victim == &c.head || victim == keep {
			return
		}
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.used -= victim.size
		c.stats.Evictions++
	}
}

func (c *refCache) Flush() {
	c.entries = make(map[Key]*refEntry)
	c.head.prev = &c.head
	c.head.next = &c.head
	c.used = 0
}

func (c *refCache) LRUKeys() []Key {
	keys := make([]Key, 0, len(c.entries))
	for e := c.head.prev; e != &c.head; e = e.prev {
		keys = append(keys, e.key)
	}
	return keys
}
