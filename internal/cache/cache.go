// Package cache implements the per-processing-unit memory buffer of
// the shared-disk architecture: a byte-budget LRU over graph records.
// When a traversal touches a vertex or edge whose record is resident,
// the access is a cheap memory hit; otherwise the record must be
// fetched from the shared disk and inserted, evicting
// least-recently-used records once the budget is exceeded — the
// "LRU-like replacement policy" of IBM System G described in
// Section VI of the paper.
package cache

import "fmt"

// Key identifies a cached record. Callers pack a record kind and ID;
// see VertexKey and EdgeKey.
type Key uint64

// VertexKey returns the cache key of vertex id.
func VertexKey(id int32) Key { return Key(uint64(uint32(id))) }

// EdgeKey returns the cache key of logical edge id.
func EdgeKey(id int32) Key { return Key(uint64(uint32(id)) | 1<<32) }

// Unlimited configures a cache with no byte budget (the paper's
// "unlimited" memory point in Figure 9).
const Unlimited int64 = 0

// Stats counts cache activity since creation.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// BytesLoaded is the total size of records inserted (i.e. fetched
	// from the shared disk).
	BytesLoaded int64
}

// HitRate returns hits/(hits+misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d loaded=%dB hit-rate=%.3f",
		s.Hits, s.Misses, s.Evictions, s.BytesLoaded, s.HitRate())
}

// CounterSink receives live activity deltas; *obs.Counter satisfies
// it. Sinks let a concurrent observer (e.g. a /metrics scrape) watch a
// cache owned by a single worker goroutine without the cache taking
// locks: the sink itself is responsible for atomicity.
type CounterSink interface {
	Add(delta int64)
}

// Sinks mirrors Stats increments to external counters. Any field may
// be nil.
type Sinks struct {
	Hits, Misses, Evictions, BytesLoaded CounterSink
}

// Records are kept in paged slot arrays indexed by record id, one page
// directory per key kind, so a lookup is two index operations and no
// hashing, and a vertex-only cache never allocates an edge directory.
// A record is named inside the cache by its handle, id<<1 | kind; the
// LRU list links handles, so slots hold no pointers and the pages are
// invisible to the garbage collector.
const (
	pageBits = 10
	pageSize = 1 << pageBits
)

// slot is one record's residency and LRU links: 16 bytes.
type slot struct {
	prev, next uint32 // handles of the neighbours towards MRU and LRU
	size       int64  // record size + 1; 0 means not resident
}

type page [pageSize]slot

// Cache is a byte-budget LRU. It is not safe for concurrent use; each
// processing unit owns one.
type Cache struct {
	budget int64 // <= 0 means unlimited
	used   int64
	n      int        // resident records
	mru    uint32     // most recently used handle; valid when n > 0
	lru    uint32     // least recently used handle; valid when n > 0
	dirs   [2][]*page // per key kind, indexed by id >> pageBits
	stats  Stats
	sinks  Sinks
}

// New creates a cache with the given byte budget; a budget <= 0 means
// unlimited capacity.
func New(budgetBytes int64) *Cache {
	return &Cache{budget: budgetBytes}
}

// Budget returns the configured byte budget (<= 0 when unlimited).
func (c *Cache) Budget() int64 { return c.budget }

// Used returns the bytes currently resident.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of resident records.
func (c *Cache) Len() int { return c.n }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetSinks installs external counters mirroring future Stats
// increments (existing totals are not replayed). Call before the
// owning goroutine starts using the cache.
func (c *Cache) SetSinks(s Sinks) { c.sinks = s }

// sink adds delta to s when s is non-nil.
func sink(s CounterSink, delta int64) {
	if s != nil {
		s.Add(delta)
	}
}

// handle maps a key built by VertexKey or EdgeKey from a non-negative
// id to its handle; ok is false for any other key.
func handle(k Key) (h uint32, ok bool) {
	kind, id := k>>32, uint32(k)
	if kind > 1 || id >= 1<<31 {
		return 0, false
	}
	return id<<1 | uint32(kind), true
}

// key is the inverse of handle.
func key(h uint32) Key { return Key(h>>1) | Key(h&1)<<32 }

// lookup returns h's slot, or nil when its page does not exist yet.
func (c *Cache) lookup(h uint32) *slot {
	dir := c.dirs[h&1]
	pi := int(h >> (pageBits + 1))
	if pi >= len(dir) || dir[pi] == nil {
		return nil
	}
	return &dir[pi][h>>1%pageSize]
}

// at returns the slot of a handle whose page exists (any resident one).
func (c *Cache) at(h uint32) *slot {
	return &c.dirs[h&1][h>>(pageBits+1)][h>>1%pageSize]
}

// addPage allocates h's page, growing its kind's directory as needed,
// and returns h's slot.
func (c *Cache) addPage(h uint32) *slot {
	dir := c.dirs[h&1]
	pi := int(h >> (pageBits + 1))
	if pi >= len(dir) {
		dir = append(dir, make([]*page, pi+1-len(dir))...)
		c.dirs[h&1] = dir
	}
	dir[pi] = new(page)
	return &dir[pi][h>>1%pageSize]
}

// Contains reports residency without touching recency or stats.
func (c *Cache) Contains(k Key) bool {
	h, ok := handle(k)
	if !ok {
		return false
	}
	s := c.lookup(h)
	return s != nil && s.size != 0
}

// unlink removes resident h (slot s) from the LRU list.
func (c *Cache) unlink(h uint32, s *slot) {
	c.n--
	if c.n == 0 {
		return
	}
	if h == c.mru {
		c.mru = s.next
	} else {
		c.at(s.prev).next = s.next
	}
	if h == c.lru {
		c.lru = s.prev
	} else {
		c.at(s.next).prev = s.prev
	}
}

// pushFront links h (slot s) in as the most recently used record.
func (c *Cache) pushFront(h uint32, s *slot) {
	if c.n == 0 {
		c.lru = h
	} else {
		s.next = c.mru
		c.at(c.mru).prev = h
	}
	c.mru = h
	c.n++
}

// negativeSize rejects a negative record size.
func negativeSize(size int64) {
	panic(fmt.Sprintf("cache: negative record size %d", size))
}

// Hit is the resident case of Access in one lookup: when k is
// resident it does exactly what Access does on a hit (counts the hit,
// refreshes recency, adopts a drifted size) and reports true; when k
// is absent it changes nothing and reports false, leaving the caller
// to fetch the record and insert it with Access. It is equivalent to
// Contains(k) followed, when true, by Access(k, size), except that a
// negative size panics either way.
//
//vet:hotpath
func (c *Cache) Hit(k Key, size int64) bool {
	if size < 0 {
		negativeSize(size)
	}
	h, ok := handle(k)
	if !ok {
		return false
	}
	s := c.lookup(h)
	if s == nil || s.size == 0 {
		return false
	}
	c.hit(h, s, size)
	return true
}

// hit counts a hit on resident h (slot s), moves it to the front and
// adopts the caller's size.
//
//vet:hotpath
func (c *Cache) hit(h uint32, s *slot, size int64) {
	c.stats.Hits++
	sink(c.sinks.Hits, 1)
	if h != c.mru {
		c.unlink(h, s)
		c.pushFront(h, s)
	}
	if size+1 != s.size {
		c.used += size + 1 - s.size
		s.size = size + 1
		c.evictOverBudget(h)
	}
}

// Access records a read of record k with the given size. If resident,
// the record is refreshed (LRU touch) and Access reports a hit; when
// the caller's size differs from the resident one (a record that grew
// or shrank since it was loaded), the entry is resized in place,
// `used` is adjusted by the delta, and eviction re-runs so the budget
// holds again. If absent, it is loaded — charging BytesLoaded,
// evicting LRU records past the budget — and Access reports a miss. A
// record larger than the whole budget is still admitted alone (the
// unit cannot traverse without it) and evicts everything else. k must
// come from VertexKey or EdgeKey with a non-negative id.
//
//vet:hotpath
func (c *Cache) Access(k Key, size int64) (hit bool) {
	if size < 0 {
		negativeSize(size)
	}
	h, ok := handle(k)
	if !ok {
		badKey(k)
	}
	s := c.lookup(h)
	if s == nil {
		s = c.addPage(h)
	}
	if s.size != 0 {
		c.hit(h, s, size)
		return true
	}
	c.stats.Misses++
	c.stats.BytesLoaded += size
	sink(c.sinks.Misses, 1)
	sink(c.sinks.BytesLoaded, size)
	s.size = size + 1
	c.pushFront(h, s)
	c.used += size
	c.evictOverBudget(h)
	return false
}

// badKey rejects a key the slot layout cannot address.
func badKey(k Key) {
	panic(fmt.Sprintf("cache: key %#x is not a VertexKey or EdgeKey of a non-negative id", uint64(k)))
}

// evictOverBudget removes LRU entries until the budget is met, never
// evicting keep (the record just inserted or resized).
//
//vet:hotpath
func (c *Cache) evictOverBudget(keep uint32) {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		if c.n == 0 || c.lru == keep {
			return
		}
		victim := c.lru
		s := c.at(victim)
		c.unlink(victim, s)
		c.used -= s.size - 1
		s.size = 0
		c.stats.Evictions++
		sink(c.sinks.Evictions, 1)
	}
}

// Flush drops every resident record (used by memory-reconfiguration
// experiments). Stats are preserved; pages stay allocated for reuse.
func (c *Cache) Flush() {
	for _, dir := range c.dirs {
		for _, p := range dir {
			if p != nil {
				*p = page{}
			}
		}
	}
	c.n = 0
	c.used = 0
}

// LRUKeys returns the resident keys from least to most recently used;
// intended for tests and debugging.
func (c *Cache) LRUKeys() []Key {
	keys := make([]Key, 0, c.n)
	for h, i := c.lru, 0; i < c.n; h, i = c.at(h).prev, i+1 {
		keys = append(keys, key(h))
	}
	return keys
}
