package signature

import "subtrav/internal/graph"

// refTable is the executable specification of Table: the map-of-slices
// signature store the paged arenas replaced, minus sharding and
// locking, which do not change what a single goroutine observes. The
// differential tests hold Table to it entry for entry.
type refTable struct {
	capacity int
	lists    map[graph.VertexID][]Entry
}

func newRefTable(capacity int) *refTable {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &refTable{capacity: capacity, lists: make(map[graph.VertexID][]Entry)}
}

// Record is Table.Record's specification: time-ordered insert,
// oldest-first eviction, and a record older than every entry of a
// full list dropped.
func (t *refTable) Record(v graph.VertexID, proc int32, now int64) {
	list := t.lists[v]
	if len(list) == t.capacity {
		if now < list[0].Time {
			return
		}
		copy(list, list[1:])
		list[len(list)-1] = Entry{Time: now, Proc: proc}
	} else {
		list = append(list, Entry{Time: now, Proc: proc})
	}
	for i := len(list) - 1; i > 0 && list[i-1].Time > list[i].Time; i-- {
		list[i-1], list[i] = list[i], list[i-1]
	}
	t.lists[v] = list
}

// Visitors returns L(v), oldest first.
func (t *refTable) Visitors(v graph.VertexID) []Entry { return t.lists[v] }

// LatestAll is Table.LatestAll's specification.
func (t *refTable) LatestAll(v graph.VertexID, out []int64) bool {
	for i := range out {
		out[i] = NoVisit
	}
	any := false
	for _, e := range t.lists[v] {
		p := int(e.Proc)
		if p < 0 || p >= len(out) {
			continue
		}
		if out[p] == NoVisit || e.Time > out[p] {
			out[p] = e.Time
		}
		any = true
	}
	return any
}

// Len returns the number of vertices with at least one entry.
func (t *refTable) Len() int { return len(t.lists) }
