package sim

import (
	"subtrav/internal/cache"
	"subtrav/internal/graph"
	"subtrav/internal/traverse"
)

// UnitExec is one processing unit's execution core, shared by the
// simulator and the live runtime: a unit runs its traversal — one
// query, or a lockstep batch — and then pays for the access trace
// against its private LRU buffer, one miss at a time. The driver
// decides what a miss costs and how time passes: the simulator issues
// a virtual-time shared-disk read and schedules the next step, the
// live runtime fetches under a real disk slot and sleeps the
// accumulated cost. Both charge identical hit and miss counts for the
// same trace and buffer state.
//
// Ownership: the results and traces Start returns live in the unit's
// Workspace and stay valid until the next Start. Not safe for
// concurrent use; one driver owns a UnitExec.
type UnitExec struct {
	g      *graph.Graph
	ws     *traverse.Workspace
	buffer *cache.Cache
	cost   CostModel
	// speed multiplies compute and hit costs (1 = nominal).
	speed float64

	// k is the member count of the current run; one and oneTrace hold
	// a lone member's outputs so Start returns slices without
	// allocating.
	k        int
	one      [1]traverse.Result
	oneTrace [1]*traverse.Trace

	// replay is the trace being charged — a lone member's own trace,
	// or a batch's shared wave trace — and pos its next access.
	replay *traverse.Trace
	pos    int

	// Charge counters of the current run (the whole batch's).
	hits, misses int
	bytesRead    int64
}

// Miss is a replayed access that is not in the unit's buffer: the
// record the driver must fetch before calling Loaded.
type Miss struct {
	Key    cache.Key
	Vertex graph.VertexID
	Bytes  int64
}

// NewUnitExec returns a unit core over g that runs kernels in ws and
// charges against buffer under cost, with compute and hit costs scaled
// by speed.
func NewUnitExec(g *graph.Graph, ws *traverse.Workspace, buffer *cache.Cache, cost CostModel, speed float64) *UnitExec {
	return &UnitExec{g: g, ws: ws, buffer: buffer, cost: cost, speed: speed}
}

// Buffer returns the unit's private buffer.
func (e *UnitExec) Buffer() *cache.Cache { return e.buffer }

// Start runs the members' traversals and arms the replay. One query
// runs through traverse.ExecuteIn and replays its own trace; two or
// more must all be traverse.Batchable and run as one lockstep batch
// that replays the shared wave trace (each wave-shared record loaded
// once). It returns per-member results and traces, and resets the
// charge counters.
func (e *UnitExec) Start(queries []traverse.Query) ([]traverse.Result, []*traverse.Trace, error) {
	e.k = len(queries)
	e.pos = 0
	e.hits, e.misses, e.bytesRead = 0, 0, 0
	e.replay = nil
	if e.k == 1 {
		res, tr, err := traverse.ExecuteIn(e.ws, e.g, queries[0])
		if err != nil {
			return nil, nil, err
		}
		e.one[0], e.oneTrace[0] = res, tr
		e.replay = tr
		return e.one[:], e.oneTrace[:], nil
	}
	results, traces, shared, err := e.ws.Batch().Run(e.g, queries)
	if err != nil {
		return nil, nil, err
	}
	e.replay = shared
	return results, traces, nil
}

// DirStats returns member i's push/pull counters from the last Start.
func (e *UnitExec) DirStats(i int) traverse.DirStats {
	if e.k == 1 {
		return e.ws.DirStats()
	}
	return e.ws.Batch().DirStats(i)
}

// NextMiss consumes buffer hits up to the next miss and returns their
// cost: MemHitNanos plus the record's CPU work, scaled by the unit's
// speed, per hit. ok reports a pending miss, which stays unconsumed —
// calling NextMiss again re-probes it — until Loaded records it. ok is
// false once the replay is exhausted.
//
//vet:hotpath
func (e *UnitExec) NextMiss() (cost int64, m Miss, ok bool) {
	accs := e.replay.Accesses
	for e.pos < len(accs) {
		a := accs[e.pos]
		key := cache.VertexKey(int32(a.Vertex))
		if !e.buffer.Hit(key, int64(a.Bytes)) {
			return cost, Miss{Key: key, Vertex: a.Vertex, Bytes: int64(a.Bytes)}, true
		}
		cost += int64(float64(e.cost.MemHitNanos+e.cpu(a)) * e.speed)
		e.hits++
		e.pos++
	}
	return cost, Miss{}, false
}

// Loaded records the pending miss — its record now fetched — in the
// buffer and the charge counters, and returns the miss's local work:
// the record's CPU work plus CPUMissByteNanos per byte, scaled by the
// unit's speed.
//
//vet:hotpath
func (e *UnitExec) Loaded() int64 {
	a := e.replay.Accesses[e.pos]
	e.pos++
	e.buffer.Access(cache.VertexKey(int32(a.Vertex)), int64(a.Bytes))
	e.misses++
	e.bytesRead += int64(a.Bytes)
	work := float64(e.cpu(a)) + e.cost.CPUMissByteNanos*float64(a.Bytes)
	return int64(work * e.speed)
}

// Charged returns the current run's buffer hits, misses and bytes
// read so far (for a batch, the whole batch's).
func (e *UnitExec) Charged() (hits, misses int, bytesRead int64) {
	return e.hits, e.misses, e.bytesRead
}

// cpu is the record processing plus the adjacency entries scanned
// while holding it.
//
//vet:hotpath
func (e *UnitExec) cpu(a traverse.Access) int64 {
	return e.cost.CPUVertexNanos + int64(a.ScannedEdges)*e.cost.CPUEdgeNanos
}
