package traverse

import "subtrav/internal/graph"

// BFS runs a bounded-depth breadth-first search from q.Start,
// expanding at most q.Depth hops and honoring vertex/edge predicates:
// a vertex failing VertexPred is touched (its record must be loaded to
// evaluate θ) but not expanded; an edge failing EdgePred is scanned
// (inline in the source record, CPU only) but not followed.
//
// This one-shot form allocates a private Workspace; executors on the
// hot path reuse one through Workspace.BFS / ExecuteIn instead. Every
// form runs on the lockstep engine (see Batch).
func BFS(g *graph.Graph, q Query) (Result, *Trace) {
	return NewWorkspace(g.NumVertices()).BFS(g, q)
}

// frontierEdges sums the out-degrees of a frontier — Beamer's m_f, the
// work a push wave is about to do.
//
//vet:hotpath
func frontierEdges(g *graph.Graph, frontier []graph.VertexID) int64 {
	var sum int64
	for _, v := range frontier {
		sum += int64(g.Degree(v))
	}
	return sum
}

// BoundedSSSP finds whether a path of length <= q.Depth connects
// q.Start and q.Target by running two breadth-first frontiers, one
// from each endpoint, each at most ceil(Depth/2) hops, until they
// meet (Section II, example 1). PathLen is the exact shortest length
// when Found and the search ran to completion.
//
// When q.MaxVisits > 0 the search gives up expanding once that many
// vertices are labeled (throughput services bound hub explosions this
// way); a capped search is best-effort — Found may be false for
// connected pairs, and PathLen may exceed the true shortest length.
func BoundedSSSP(g *graph.Graph, q Query) (Result, *Trace) {
	return NewWorkspace(g.NumVertices()).BoundedSSSP(g, q)
}

// ssspState is a bidirectional search's shared counters.
type ssspState struct {
	visited int
	capped  bool // MaxVisits reached: the search gives up expanding
	best    int
}
