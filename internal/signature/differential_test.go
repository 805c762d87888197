package signature

import (
	"sync"
	"testing"
	"testing/quick"

	"subtrav/internal/graph"
	"subtrav/internal/xrand"
)

// randomTrace draws a trace of n vertices: mostly from a small hot set
// (so traces repeat vertices and lists fill up), sometimes from a wide
// id range spanning many shards and pages.
func randomTrace(rng *xrand.RNG, n int) []graph.VertexID {
	vs := make([]graph.VertexID, n)
	for i := range vs {
		if rng.Intn(4) == 0 {
			vs[i] = graph.VertexID(rng.Intn(1 << 14))
		} else {
			vs[i] = graph.VertexID(rng.Intn(40))
		}
	}
	return vs
}

// Property: RecordAll, a Record loop and the reference agree on every
// list, for random traces with duplicates, timestamps that run
// backwards between traces, and capacities 1–10.
func TestRecordAllMatchesRecordLoopAndReferenceQuick(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		rng := xrand.New(seed)
		capacity := int(capRaw)%10 + 1
		batched, looped, ref := NewTable(capacity), NewTable(capacity), newRefTable(capacity)
		seen := map[graph.VertexID]bool{}
		for trace := 0; trace < 20; trace++ {
			vs := randomTrace(rng, rng.Intn(60))
			proc := int32(rng.Intn(6))
			now := int64(rng.Intn(40)) // small range → out-of-order and equal times
			batched.RecordAll(vs, proc, now)
			for _, v := range vs {
				looped.Record(v, proc, now)
				ref.Record(v, proc, now)
				seen[v] = true
			}
		}
		if batched.Len() != ref.Len() || looped.Len() != ref.Len() {
			return false
		}
		out, want := make([]int64, 6), make([]int64, 6)
		for v := range seen {
			if !sameEntries(batched.Visitors(v), ref.Visitors(v)) ||
				!sameEntries(looped.Visitors(v), ref.Visitors(v)) {
				return false
			}
			if batched.LatestAll(v, out) != ref.LatestAll(v, want) || !sameTimes(out, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameTimes(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecordAllLocksOncePerShard(t *testing.T) {
	tbl := NewTable(4)
	// Vertices 1, 65 and 129 share shard 1; 2 is alone in shard 2.
	vs := []graph.VertexID{1, 2, 65, 1, 129}
	base := tbl.LockAcquisitions()
	tbl.RecordAll(vs, 0, 10)
	if got := tbl.LockAcquisitions() - base; got != 2 {
		t.Errorf("lock acquisitions = %d, want 2 (one per touched shard)", got)
	}
	tbl.RecordAll(nil, 0, 11)
	if got := tbl.LockAcquisitions() - base; got != 2 {
		t.Errorf("empty RecordAll took locks: %d", got)
	}
	if n := len(tbl.Visitors(1)); n != 2 {
		t.Errorf("duplicate vertex recorded %d times, want 2", n)
	}
}

// RecordAll allocates nothing once the touched pages exist and the
// scratch pool holds a large enough buffer.
func TestRecordAllZeroAllocs(t *testing.T) {
	tbl := NewTable(DefaultCapacity)
	vs := randomTrace(xrand.New(1), 2048)
	tbl.RecordAll(vs, 0, 0)
	now := int64(1)
	allocs := testing.AllocsPerRun(100, func() {
		tbl.RecordAll(vs, int32(now%8), now)
		now++
	})
	if allocs != 0 {
		t.Errorf("RecordAll allocs/op = %g, want 0", allocs)
	}
}

// Concurrent RecordAll calls and LatestAll readers, for the race
// detector: readers must see only well-formed lists.
func TestConcurrentRecordAllAndLatestAll(t *testing.T) {
	const procs = 4
	tbl := NewTable(DefaultCapacity)
	var wg sync.WaitGroup
	for p := int32(0); p < procs; p++ {
		wg.Add(2)
		go func(proc int32) {
			defer wg.Done()
			rng := xrand.New(uint64(proc) + 1)
			for i := 0; i < 200; i++ {
				tbl.RecordAll(randomTrace(rng, 64), proc, int64(i))
			}
		}(p)
		go func(proc int32) {
			defer wg.Done()
			out := make([]int64, procs)
			for i := 0; i < 2000; i++ {
				tbl.LatestAll(graph.VertexID(i%40), out)
			}
		}(p)
	}
	wg.Wait()
	for v := graph.VertexID(0); v < 40; v++ {
		got := tbl.Visitors(v)
		if len(got) < 1 || len(got) > DefaultCapacity {
			t.Fatalf("vertex %d has %d entries", v, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Time > got[i].Time {
				t.Fatalf("vertex %d list out of order: %v", v, got)
			}
		}
	}
}

// benchTraces are 2048-vertex traces over 20k ids, the vertex count of
// the end-to-end benchmark's graph.
func benchTraces() [][]graph.VertexID {
	rng := xrand.New(7)
	traces := make([][]graph.VertexID, 16)
	for i := range traces {
		traces[i] = make([]graph.VertexID, 2048)
		for j := range traces[i] {
			traces[i][j] = graph.VertexID(rng.Intn(20_000))
		}
	}
	return traces
}

func BenchmarkRecordAll(b *testing.B) {
	tbl, traces := NewTable(DefaultCapacity), benchTraces()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.RecordAll(traces[i%len(traces)], int32(i%8), int64(i))
	}
}

func BenchmarkRecordLoop(b *testing.B) {
	tbl, traces := NewTable(DefaultCapacity), benchTraces()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, v := range traces[i%len(traces)] {
			tbl.Record(v, int32(i%8), int64(i))
		}
	}
}
