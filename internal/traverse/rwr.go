package traverse

import (
	"sort"

	"subtrav/internal/graph"
	"subtrav/internal/xrand"
)

// RandomWalk implements local random walk with restart (Section II,
// example 3): a particle starts at q.Start (the corpus image the query
// mapped to), and at each step either restarts with probability
// q.RestartProb or moves to a neighbor u with probability
// s_{v,u}/Z, where s is the edge similarity weight and Z normalizes
// over the restart target's similarity and the neighborhood (the
// paper's formulation). Visit frequencies over q.Steps steps score
// vertices; the top q.TopK (excluding the start) are returned as the
// refined matches.
//
// The walk is deterministic given q.Seed.
func RandomWalk(g *graph.Graph, q Query) (Result, *Trace) {
	return NewWorkspace(g.NumVertices()).RandomWalk(g, q)
}

// RandomWalk is the dense-scratch kernel: visit counts accumulate in
// an epoch-stamped map plus a first-visit-ordered side list, the RNG
// lives on the stack (Reseed, no per-query generator allocation), and
// the ranking is built in the pooled result buffer. Pinned bit-for-bit
// against RandomWalkReference.
//
//vet:hotpath
func (ws *Workspace) RandomWalk(g *graph.Graph, q Query) (Result, *Trace) {
	ws.begin(g)
	var rng xrand.RNG
	rng.Reseed(q.Seed)

	start := q.Start
	lastAcc := ws.touch(g, start)
	counts := &ws.scratch.labels[0]
	cur := start
	visited := 1

	for step := 0; step < q.Steps; step++ {
		if q.RestartProb > 0 && rng.Float64() < q.RestartProb {
			cur = start
			// Restart revisits the cached start record.
			lastAcc = ws.touch(g, start)
			continue
		}
		lo, hi := g.EdgeSlots(cur)
		if hi == lo {
			cur = start // dead end: restart
			lastAcc = ws.touch(g, start)
			continue
		}
		// Normalizer Z over the incident similarities (edge weights
		// are inline in the current record: CPU only).
		ws.trace.chargeScan(lastAcc, int(hi-lo))
		var z float64
		for s := lo; s < hi; s++ {
			z += float64(g.Weight(g.LogicalEdge(s)))
		}
		if z <= 0 {
			cur = start
			continue
		}
		pick := rng.Float64() * z
		next := g.TargetAt(hi - 1)
		for s := lo; s < hi; s++ {
			pick -= float64(g.Weight(g.LogicalEdge(s)))
			if pick <= 0 {
				next = g.TargetAt(s)
				break
			}
		}
		cur = next
		if !ws.scratch.seen.Contains(cur) {
			visited++
		}
		lastAcc = ws.touch(g, cur)
		if counts.Inc(cur, 1) == 1 {
			ws.orderA = append(ws.orderA, cur)
		}
	}

	ranking := ws.ranking[:0]
	for _, v := range ws.orderA {
		if v == start {
			continue
		}
		c, _ := counts.Get(v)
		ranking = append(ranking, Ranked{Vertex: v, Score: float64(c) / float64(q.Steps)})
	}
	ws.ranking = ranking
	ws.rankSorter.s = ranking
	sort.Sort(&ws.rankSorter)
	if q.TopK > 0 && len(ranking) > q.TopK {
		ranking = ranking[:q.TopK]
	}
	if len(ranking) == 0 {
		ranking = nil // match the reference's nil-when-empty Result
	}
	return Result{Visited: visited, Ranking: ranking}, &ws.trace
}
