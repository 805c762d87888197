package main

import (
	"fmt"
	"sync"

	"subtrav/internal/live"
	"subtrav/internal/loadgen"
	"subtrav/internal/service"
)

// Every workload serves the same graph: TwitterLike at ScaleSmall
// (20k vertices, 150k edges) from this generator seed, loaded from a
// STRVCSR2 snapshot, on numUnits processing units. The --seed flag
// drives only the query stream.
const (
	graphSeed = 42
	numUnits  = 8
)

// rawTimeScale turns every modeled cost into a sleep shorter than a
// nanosecond, which the runtime skips without arming a timer, so the
// wall clock measures the program and not the timer wheel. Zero cannot
// be used: live.Config treats TimeScale 0 as "use the default 1e-3".
const rawTimeScale = 1e-9

// workload is one closed-loop traffic mix against one runtime shape.
type workload struct {
	name string
	// conns client connections, each carrying perConn callers that
	// keep one query in flight apiece.
	conns, perConn int
	mix            loadgen.OpMix
	zipf           float64
	memPerUnit     int64
	// batch and coalesce set live.Config.BatchTraversals and
	// CoalesceReads.
	batch    int
	coalesce bool
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json says why
// each one is there.
var workloads = []workload{
	{
		name: "interactive", conns: 2, perConn: 1,
		mix: loadgen.OpMix{BFS: 1}, zipf: 1.1, memPerUnit: 64 << 20,
	},
	{
		name: "saturated", conns: 2, perConn: 16,
		mix: loadgen.DefaultOpMix(), zipf: 1.1, memPerUnit: 64 << 20,
	},
	{
		name: "shared-disk", conns: 2, perConn: 16,
		mix: loadgen.OpMix{BFS: 0.7, SSSP: 0.3}, zipf: 1.4, memPerUnit: 4 << 20,
		batch: 32, coalesce: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// callers is the closed-loop population: queries in flight at once.
func (w workload) callers() int { return w.conns * w.perConn }

// config is the runtime configuration of the workload in raw mode.
// traceBuffer > 0 turns span capture on.
func (w workload) config(traceBuffer int) live.Config {
	return live.Config{
		NumUnits:        numUnits,
		MemoryPerUnit:   w.memPerUnit,
		TimeScale:       rawTimeScale,
		TraceBuffer:     traceBuffer,
		BatchTraversals: w.batch,
		CoalesceReads:   w.coalesce,
	}
}

// chunkEvents is the nominal number of plan events per stream chunk.
const chunkEvents = 4096

// stream hands out a workload's queries in plan order. The plan is
// built a chunk at a time by loadgen.BuildPlan from (seed, chunk
// index), so the stream is unbounded and still a pure function of the
// seed. Arrival times are ignored: the callers are a closed loop.
type stream struct {
	w       workload
	seed    uint64
	numKeys int32

	mu     sync.Mutex
	chunk  uint64
	events []loadgen.Event
	pos    int64
}

func newStream(w workload, seed uint64, numKeys int) *stream {
	return &stream{w: w, seed: seed, numKeys: int32(numKeys)}
}

// next returns the stream's next query and its position in the stream.
func (s *stream) next() (int64, service.WireQuery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.events) == 0 {
		plan, err := loadgen.BuildPlan(loadgen.Config{
			Seed:          s.seed + s.chunk*0x9e3779b97f4a7c15,
			DurationNanos: 1e9,
			QPS:           chunkEvents,
			Mix:           s.w.mix,
			NumKeys:       s.numKeys,
			ZipfS:         s.w.zipf,
		})
		if err != nil {
			return 0, service.WireQuery{}, err
		}
		s.chunk++
		s.events = plan.Events
	}
	ev := s.events[0]
	s.events = s.events[1:]
	s.pos++
	return s.pos - 1, wireQuery(ev), nil
}

// wireQuery turns a plan event into a query with the op parameters of
// cmd/subtrav-load.
func wireQuery(ev loadgen.Event) service.WireQuery {
	q := service.WireQuery{Op: ev.Op, Start: ev.Start}
	switch ev.Op {
	case loadgen.OpBFS:
		q.Depth = 2
		q.MaxVisits = 300
	case loadgen.OpSSSP:
		q.Target = ev.Target
		q.Depth = 6
	case loadgen.OpCollab:
		q.SimilarityThreshold = 0.3
	case loadgen.OpRWR:
		q.Steps = 300
		q.RestartProb = 0.2
		q.TopK = 10
		q.Seed = ev.Seed
	}
	return q
}
