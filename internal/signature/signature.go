// Package signature implements the vertex visit-signature machinery of
// Section IV-A: a global steady timer and, for each graph vertex v, a
// short list L(v) of (timestamp, processor) pairs recording which
// processing units recently visited v. The affinity scorer reads these
// lists to decide whether a subgraph traversal is likely to find its
// data cached on a given unit.
package signature

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"subtrav/internal/graph"
)

// Clock yields monotically non-decreasing timestamps in nanoseconds.
// The discrete-event simulator supplies virtual time; the live runtime
// supplies wall time.
type Clock interface {
	Now() int64
}

// WallClock reads the machine's monotonic clock.
type WallClock struct{}

// Now returns the current wall time in nanoseconds.
func (WallClock) Now() int64 { return time.Now().UnixNano() }

// ManualClock is an explicitly advanced clock, used by the simulator
// and by tests. Safe for concurrent use.
type ManualClock struct {
	t atomic.Int64
}

// Now returns the current virtual time.
func (c *ManualClock) Now() int64 { return c.t.Load() }

// Set moves the clock to t; it never moves backwards.
func (c *ManualClock) Set(t int64) {
	for {
		cur := c.t.Load()
		if t <= cur || c.t.CompareAndSwap(cur, t) {
			return
		}
	}
}

// Advance moves the clock forward by d nanoseconds and returns the new
// time.
func (c *ManualClock) Advance(d int64) int64 { return c.t.Add(d) }

// Reset forcibly rewinds the clock to 0 — the one sanctioned backwards
// move, used when a simulator reuses its clock across independent
// runs. Never call it while readers are active.
func (c *ManualClock) Reset() { c.t.Store(0) }

// Entry is one visit record: processor proc touched the vertex at the
// given timestamp.
type Entry struct {
	Time int64
	Proc int32
}

// DefaultCapacity is the per-vertex signature list length suggested by
// the paper ("the list can be kept short, say 10 entries per vertex").
const DefaultCapacity = 10

// Table stores the signature lists of all vertices. It is sharded and
// safe for concurrent use: traversal engines record visits while the
// scheduler reads affinities.
//
// Each shard owns the vertices with v mod numShards equal to its index
// and keeps their lists in paged, fixed-capacity arenas indexed by
// v>>shardBits: a page holds pageSize vertices' lists, capacity entries
// each, plus one state word per vertex. A page is allocated on its
// first write, under the shard's lock, and is never moved or freed
// until Reset, so a list is found with two index operations and no
// hashing, and the arenas hold no pointers for the GC to scan.
//
// A shard is guarded by a plain mutex, not a reader/writer lock: every
// traversal writes the lists of all the vertices it touched while the
// scheduler reads only its candidates' anchors, and an uncontended
// write lock of a sync.RWMutex costs four atomic operations against a
// sync.Mutex's two. Readers hold the lock for one scan of at most
// capacity entries.
type Table struct {
	capacity int
	shards   []shard
	scratch  sync.Pool // *[]graph.VertexID, RecordAll's shard-sorted copy of a trace
}

const (
	shardBits = 6
	numShards = 1 << shardBits
	pageBits  = 6
	pageSize  = 1 << pageBits
)

// page holds the signature lists of pageSize consecutive vertices of
// one shard. Vertex slot i owns the ring ent[i*capacity :
// (i+1)*capacity]. Its state word is the entry count while the list is
// filling (entries at ring[0:n], oldest first) and capacity+head once
// it is full (oldest entry at ring[head], the rest following it
// cyclically), so a full list evicts its oldest entry by overwriting
// it in place instead of shifting the others.
type page struct {
	state [pageSize]int32
	ent   []Entry
}

type shard struct {
	mu    sync.Mutex
	pages []*page // indexed by (v>>shardBits)>>pageBits; nil until written
	used  int     // vertices with at least one entry
	// locks counts mutex acquisitions on this shard's hot-path
	// operations; Table.LockAcquisitions sums them. The counter feeds
	// the scheduler hot-path benchmarks (internal/schedbench), which
	// assert that the batched LatestAll path takes P× fewer locks than
	// per-proc LatestByProc scans.
	locks int64
}

// NewTable creates a table keeping at most capacity entries per vertex
// (DefaultCapacity if capacity <= 0).
func NewTable(capacity int) *Table {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Table{capacity: capacity, shards: make([]shard, numShards)}
	t.scratch.New = func() any { return new([]graph.VertexID) }
	return t
}

// Capacity returns the per-vertex entry limit.
func (t *Table) Capacity() int { return t.capacity }

func (t *Table) shardFor(v graph.VertexID) *shard {
	return &t.shards[uint32(v)%numShards]
}

// lock acquires v's shard lock on a hot path, counting the
// acquisition.
func (t *Table) lock(v graph.VertexID) *shard {
	s := t.shardFor(v)
	s.mu.Lock()
	s.locks++
	return s
}

// list returns L(v) in place as two runs, oldest first: a, then b.
// Both are empty when v's page has never been written. The caller
// holds v's shard lock.
func (t *Table) list(s *shard, v graph.VertexID) (a, b []Entry) {
	local := uint32(v) >> shardBits
	pi := int(local >> pageBits)
	if pi >= len(s.pages) || s.pages[pi] == nil {
		return nil, nil
	}
	p := s.pages[pi]
	i := int(local % pageSize)
	ring := p.ent[i*t.capacity : (i+1)*t.capacity]
	st := int(p.state[i])
	if st < t.capacity {
		return ring[:st], nil
	}
	head := st - t.capacity
	return ring[head:], ring[:head]
}

// addPage allocates page pi of s, growing the shard's page directory
// as needed. The caller holds s's lock.
func (t *Table) addPage(s *shard, pi int) {
	if pi >= len(s.pages) {
		s.pages = append(s.pages, make([]*page, pi+1-len(s.pages))...)
	}
	s.pages[pi] = &page{ent: make([]Entry, pageSize*t.capacity)}
}

// Record inserts the visit (now, proc) into L(v), keeping the list
// ordered by time and evicting the oldest entry when it is full. The
// global clock is steady, but live-runtime units race on reading it,
// so records for one vertex can arrive slightly out of order; a new
// record therefore insertion-sorts into the tail (lists hold at most
// capacity ≈ 10 entries, so this is O(capacity)). Keeping the list
// time-ordered is what lets LatestByProc's newest-first scan return
// the true maximum — the t_p of Eq. 2 — instead of a stale timestamp.
// A record older than every entry of a full list is already outside
// the "capacity most recent visits" window and is dropped.
func (t *Table) Record(v graph.VertexID, proc int32, now int64) {
	s := t.lock(v)
	t.record(s, v, proc, now)
	s.mu.Unlock()
}

// RecordAll records the visit (now, proc) for every vertex of vs, in
// order, with exactly the effect of calling Record on each in turn:
// duplicates are recorded once per occurrence, and capacity eviction
// and the stale-record rule apply per vertex as Record applies them.
// A stable counting sort of vs by shard (into pooled scratch) lets it
// take each touched shard's lock once instead of once per vertex;
// records of one vertex stay in trace order because the sort is
// stable, and records of different vertices never interact.
//
//vet:hotpath
func (t *Table) RecordAll(vs []graph.VertexID, proc int32, now int64) {
	if len(vs) == 0 {
		return
	}
	bufp := t.scratch.Get().(*[]graph.VertexID)
	if cap(*bufp) < len(vs) {
		growScratch(bufp, len(vs))
	}
	sorted := (*bufp)[:len(vs)]
	var end [numShards]int32
	for _, v := range vs {
		end[uint32(v)%numShards]++
	}
	var pos [numShards]int32
	var sum int32
	for i, n := range end {
		pos[i] = sum
		sum += n
		end[i] = sum
	}
	for _, v := range vs {
		sh := uint32(v) % numShards
		sorted[pos[sh]] = v
		pos[sh]++
	}
	var lo int32
	for _, hi := range end {
		if hi == lo {
			continue
		}
		s := t.lock(sorted[lo])
		for _, v := range sorted[lo:hi] {
			t.record(s, v, proc, now)
		}
		s.mu.Unlock()
		lo = hi
	}
	t.scratch.Put(bufp)
}

// growScratch replaces *bufp with a buffer of at least n vertices.
func growScratch(bufp *[]graph.VertexID, n int) {
	*bufp = make([]graph.VertexID, n)
}

// record is Record's body; the caller holds s's lock.
//
//vet:hotpath
func (t *Table) record(s *shard, v graph.VertexID, proc int32, now int64) {
	local := uint32(v) >> shardBits
	pi := int(local >> pageBits)
	if pi >= len(s.pages) || s.pages[pi] == nil {
		t.addPage(s, pi)
	}
	p := s.pages[pi]
	i := int(local % pageSize)
	c := t.capacity
	ring := p.ent[i*c : (i+1)*c]
	st := int(p.state[i])
	var head, n int
	if st < c {
		if st == 0 {
			s.used++
		}
		ring[st] = Entry{Time: now, Proc: proc}
		n = st + 1
		p.state[i] = int32(n) // reaching c reads as full with head 0
	} else {
		head = st - c
		if now < ring[head].Time {
			return
		}
		// Overwrite the oldest entry; it becomes the newest.
		ring[head] = Entry{Time: now, Proc: proc}
		if head++; head == c {
			head = 0
		}
		n = c
		p.state[i] = int32(c + head)
	}
	// Insertion-sort the new entry (logical position n-1) backwards.
	cur := head + n - 1
	if cur >= c {
		cur -= c
	}
	for k := n - 1; k > 0; k-- {
		prev := cur - 1
		if prev < 0 {
			prev = c - 1
		}
		if ring[prev].Time <= ring[cur].Time {
			break
		}
		ring[prev], ring[cur] = ring[cur], ring[prev]
		cur = prev
	}
}

// VisitedBy reports whether proc appears in L(v) — the variant
// Kronecker delta δ_{v,p} of Eq. 1.
func (t *Table) VisitedBy(v graph.VertexID, proc int32) bool {
	_, ok := t.LatestByProc(v, proc)
	return ok
}

// LatestByProc returns the most recent timestamp at which proc visited
// v, scanning L(v) newest-first (Record keeps the list time-ordered,
// so the first match is the maximum).
func (t *Table) LatestByProc(v graph.VertexID, proc int32) (int64, bool) {
	s := t.lock(v)
	defer s.mu.Unlock()
	a, b := t.list(s, v)
	for _, run := range [2][]Entry{b, a} {
		for i := len(run) - 1; i >= 0; i-- {
			if run[i].Proc == proc {
				return run[i].Time, true
			}
		}
	}
	return 0, false
}

// NoVisit is the sentinel timestamp LatestAll writes for processors
// without an entry in L(v). It is far older than any real timestamp,
// so max-comparisons against it need no special casing.
const NoVisit int64 = math.MinInt64

// LatestAll fills out[p] with the most recent timestamp at which
// processor p visited v, for every p in [0, len(out)), writing NoVisit
// where p has none. It acquires v's shard lock once and scans L(v)
// once, serving all P units in a single pass — the batched counterpart
// of calling LatestByProc per processor, and the primitive behind the
// affinity scorer's per-round snapshot cache. Entries whose Proc falls
// outside [0, len(out)) are ignored. The scan takes the true maximum
// per processor, so it is correct even on a list with out-of-order
// residue. It reports whether any in-range processor was found.
func (t *Table) LatestAll(v graph.VertexID, out []int64) bool {
	for i := range out {
		out[i] = NoVisit
	}
	s := t.lock(v)
	a, b := t.list(s, v)
	any := false
	for _, run := range [2][]Entry{a, b} {
		for _, e := range run {
			p := int(e.Proc)
			if p < 0 || p >= len(out) {
				continue
			}
			if out[p] == NoVisit || e.Time > out[p] {
				out[p] = e.Time
			}
			any = true
		}
	}
	s.mu.Unlock()
	return any
}

// LockAcquisitions returns the cumulative number of shard-lock
// acquisitions taken by the hot-path operations since the table was
// created: one per Record, LatestByProc and LatestAll call, and one
// per touched shard per RecordAll call (a RecordAll over k vertices
// spread across s shards counts s, not k). It is a benchmark/diagnostic
// counter: the batched-scoring work asserts its growth rate. Reading
// it takes every shard lock, uncounted.
func (t *Table) LockAcquisitions() int64 {
	var total int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		total += s.locks
		s.mu.Unlock()
	}
	return total
}

// Visitors returns a copy of L(v), ordered oldest to newest.
func (t *Table) Visitors(v graph.VertexID) []Entry {
	s := t.shardFor(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	a, b := t.list(s, v)
	if len(a)+len(b) == 0 {
		return nil
	}
	return append(append(make([]Entry, 0, len(a)+len(b)), a...), b...)
}

// ForEachVisitor calls fn for every entry of L(v), oldest first,
// without copying. fn must not call back into the table.
func (t *Table) ForEachVisitor(v graph.VertexID, fn func(Entry)) {
	s := t.shardFor(v)
	s.mu.Lock()
	a, b := t.list(s, v)
	for _, run := range [2][]Entry{a, b} {
		for _, e := range run {
			fn(e)
		}
	}
	s.mu.Unlock()
}

// Len returns the total number of vertices with at least one
// signature entry.
func (t *Table) Len() int {
	total := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		total += s.used
		s.mu.Unlock()
	}
	return total
}

// Reset drops all signature lists and frees their pages.
func (t *Table) Reset() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.pages = nil
		s.used = 0
		s.mu.Unlock()
	}
}
