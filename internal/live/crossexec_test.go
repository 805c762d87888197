package live

import (
	"fmt"
	"reflect"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
	"subtrav/internal/xrand"
)

// crossQueries is a seeded BFS/SSSP/Collab/RWR mix with hot starts,
// so the unit buffer sees hits, misses and evictions.
func crossQueries(g *graph.Graph, n int, seed uint64) []traverse.Query {
	rng := xrand.New(seed)
	start := func() graph.VertexID {
		if rng.Float64() < 0.7 {
			return graph.VertexID(rng.Intn(40))
		}
		return graph.VertexID(rng.Intn(g.NumVertices()))
	}
	qs := make([]traverse.Query, n)
	for i := range qs {
		switch i % 4 {
		case 0:
			qs[i] = traverse.Query{Op: traverse.OpBFS, Start: start(), Depth: 2, MaxVisits: 120}
		case 1:
			qs[i] = traverse.Query{Op: traverse.OpSSSP, Start: start(),
				Target: graph.VertexID(rng.Intn(g.NumVertices())), Depth: 4}
		case 2:
			qs[i] = traverse.Query{Op: traverse.OpCollab, Start: start(), SimilarityThreshold: 0.1}
		default:
			qs[i] = traverse.Query{Op: traverse.OpRWR, Start: start(), Steps: 60,
				RestartProb: 0.2, TopK: 4, Seed: uint64(i)}
		}
	}
	return qs
}

// TestCrossExecutorDifferential runs one seeded mixed workload at P=1
// through the simulator and through the live runtime in raw mode. Both
// drive the same unit core (sim.UnitExec), so every query must get the
// same Result and be charged the same buffer hits, misses and bytes
// read. One unit serving one query at a time fixes the replay order
// on both sides: the simulator's arrivals are spaced so no task
// queues behind another, and the live queries are submitted in
// sequence.
func TestCrossExecutorDifferential(t *testing.T) {
	g := liveGraph(t)
	const n = 120
	queries := crossQueries(g, n, 77)
	cost := sim.DefaultCostModel()
	const memory = 160 << 10

	for _, batch := range []int{0, 32} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			// Simulator side, spans through SetTrace.
			c, err := sim.NewCluster(g, sim.Config{
				NumUnits: 1, MemoryPerUnit: memory, Cost: cost, BatchTraversals: batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			ring := obs.NewRing(n)
			c.SetTrace(ring)
			simResults := make([]traverse.Result, n)
			c.OnComplete = func(task *sched.Task, r traverse.Result) { simResults[task.ID] = r }
			tasks := make([]*sched.Task, n)
			for i, q := range queries {
				tasks[i] = &sched.Task{ID: int64(i), Query: q, Arrival: int64(i) * 3600e9}
			}
			simRes, err := c.Run(sched.NewRoundRobin(), tasks)
			if err != nil {
				t.Fatal(err)
			}
			if simRes.Completed != n {
				t.Fatalf("sim completed %d of %d", simRes.Completed, n)
			}
			if simRes.CacheEvictions == 0 {
				t.Fatalf("buffer of %d bytes never evicted; the differential would not exercise LRU order", memory)
			}
			simSpans := ring.Last(n)

			// Live side, raw mode, sequential Do.
			r, err := New(g, Config{
				NumUnits: 1, MemoryPerUnit: memory, Cost: cost, TimeScale: 1e-9,
				TraceBuffer: n, BatchTraversals: batch,
			}, sched.NewRoundRobin())
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			liveResults := make([]traverse.Result, n)
			for i, q := range queries {
				resp, err := r.Do(q)
				if err != nil || resp.Err != nil {
					t.Fatalf("live query %d: %v / %v", i, err, resp.Err)
				}
				liveResults[i] = resp.Result
			}
			liveSpans := r.Trace(n)
			if len(simSpans) != n || len(liveSpans) != n {
				t.Fatalf("spans: sim %d, live %d, want %d each", len(simSpans), len(liveSpans), n)
			}

			var hits, misses int64
			for i := 0; i < n; i++ {
				ss, ls := simSpans[i], liveSpans[i]
				if ss.QueryID != int64(i) || ls.QueryID != int64(i) {
					t.Fatalf("span %d: sim query %d, live query %d", i, ss.QueryID, ls.QueryID)
				}
				if ss.WaitNanos != 0 {
					t.Fatalf("sim task %d waited %d ns; it queued behind another task", i, ss.WaitNanos)
				}
				if !reflect.DeepEqual(simResults[i], liveResults[i]) {
					t.Fatalf("query %d (%s): sim result %+v, live result %+v", i, queries[i].Op, simResults[i], liveResults[i])
				}
				if ss.CacheHits != ls.CacheHits || ss.CacheMisses != ls.CacheMisses || ss.BytesRead != ls.BytesRead {
					t.Fatalf("query %d (%s): sim charged hits/misses/bytes %d/%d/%d, live %d/%d/%d", i, queries[i].Op,
						ss.CacheHits, ss.CacheMisses, ss.BytesRead, ls.CacheHits, ls.CacheMisses, ls.BytesRead)
				}
				if ss.Op != ls.Op || ss.Start != ls.Start || ss.Unit != ls.Unit || ss.Outcome != ls.Outcome {
					t.Fatalf("query %d: sim span %v, live span %v", i, ss, ls)
				}
				hits += int64(ss.CacheHits)
				misses += int64(ss.CacheMisses)
			}
			// The spans account for every buffer probe on both sides.
			if hits != simRes.CacheHits || misses != simRes.CacheMisses {
				t.Errorf("sim spans sum to %d hits, %d misses; buffer counted %d, %d", hits, misses, simRes.CacheHits, simRes.CacheMisses)
			}
			if st := r.Stats()[0]; st.CacheHits != hits || st.CacheMisses != misses {
				t.Errorf("live spans sum to %d hits, %d misses; buffer counted %d, %d", hits, misses, st.CacheHits, st.CacheMisses)
			}
		})
	}
}
