package cache

import (
	"testing"
	"testing/quick"

	"subtrav/internal/xrand"
)

type counter struct{ n int64 }

func (c *counter) Add(d int64) { c.n += d }

// Property: random Access/Hit/Contains/Flush sequences over both key
// kinds agree with the reference on every hit and miss, on evictions,
// Used, Len and LRU order, with record sizes drifting between
// accesses, under tight, loose and unlimited budgets. Ids span several
// pages of each kind.
func TestMatchesReferenceQuick(t *testing.T) {
	f := func(seed uint64, ops uint16, budgetRaw uint8) bool {
		rng := xrand.New(seed)
		budget := []int64{Unlimited, 1, 60, 200, 1000}[int(budgetRaw)%5]
		c, ref := New(budget), newRefCache(budget)
		var sinks [4]counter
		c.SetSinks(Sinks{Hits: &sinks[0], Misses: &sinks[1], Evictions: &sinks[2], BytesLoaded: &sinks[3]})
		for i := 0; i < int(ops)%600+1; i++ {
			id := int32(rng.Intn(24))
			if rng.Intn(8) == 0 {
				id = int32(rng.Intn(5 * pageSize))
			}
			k := VertexKey(id)
			if rng.Intn(3) == 0 {
				k = EdgeKey(id)
			}
			size := int64(rng.Intn(50))
			switch op := rng.Intn(20); {
			case op < 9:
				if c.Access(k, size) != ref.Access(k, size) {
					return false
				}
			case op < 17:
				want := ref.Contains(k)
				if want {
					ref.Access(k, size)
				}
				if c.Hit(k, size) != want {
					return false
				}
			case op < 19:
				if c.Contains(k) != ref.Contains(k) {
					return false
				}
			default:
				c.Flush()
				ref.Flush()
			}
			if c.Used() != ref.used || c.Len() != len(ref.entries) || c.Stats() != ref.stats {
				return false
			}
		}
		st := c.Stats()
		if sinks[0].n != st.Hits || sinks[1].n != st.Misses || sinks[2].n != st.Evictions || sinks[3].n != st.BytesLoaded {
			return false
		}
		got, want := c.LRUKeys(), ref.LRUKeys()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHitLeavesAbsentKeyUntouched(t *testing.T) {
	c := New(100)
	if c.Hit(VertexKey(3), 10) {
		t.Fatal("Hit on an absent key reported true")
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Errorf("Hit on an absent key changed the cache: len=%d stats=%+v", c.Len(), c.Stats())
	}
	c.Access(VertexKey(3), 10)
	if !c.Hit(VertexKey(3), 10) || c.Stats().Hits != 1 {
		t.Errorf("Hit on a resident key: stats=%+v", c.Stats())
	}
	if c.Hit(EdgeKey(3), 10) {
		t.Error("edge key hit on a resident vertex key")
	}
}

// Keys outside the slot layout (negative ids, foreign kind bits) can
// never be resident; inserting one is a programming error.
func TestUnaddressableKeys(t *testing.T) {
	c := New(Unlimited)
	for _, k := range []Key{VertexKey(-1), EdgeKey(-5), Key(2) << 32} {
		if c.Contains(k) || c.Hit(k, 1) {
			t.Errorf("key %#x reported resident", uint64(k))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access(%#x) did not panic", uint64(k))
				}
			}()
			c.Access(k, 1)
		}()
	}
}

// Hit and Access allocate nothing once the touched pages exist.
func TestHitAndAccessZeroAllocs(t *testing.T) {
	c := New(64 * pageSize)
	const n = 3 * pageSize
	for id := int32(0); id < n; id++ {
		c.Access(VertexKey(id), 100)
	}
	id := int32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Hit(VertexKey(id%n), 100)
		c.Access(VertexKey((id*7)%n), 100+int64(id%3)) // hits, misses, resizes, evictions
		id++
	})
	if allocs != 0 {
		t.Errorf("Hit+Access allocs/op = %g, want 0", allocs)
	}
}

// BenchmarkCacheHit charges a resident working set of 20k vertex
// records, the vertex count of the end-to-end benchmark's graph, in a
// scattered order.
func BenchmarkCacheHit(b *testing.B) {
	const n = 20_000
	c := New(Unlimited)
	order := xrand.New(3).Perm(n)
	for _, id := range order {
		c.Access(VertexKey(int32(id)), 680)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Hit(VertexKey(int32(order[i%n])), 680) {
			b.Fatal("miss on a resident record")
		}
	}
}
