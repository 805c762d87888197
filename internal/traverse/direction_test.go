package traverse

import (
	"fmt"
	"math"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
)

// The direction-mode differential suite extends the push-only wall:
// every push/pull mode — forced and heuristic, including thresholds
// tuned to oscillate — must reproduce the reference Result and Trace
// bit-for-bit on every graph family, predicate path, and MaxVisits
// cap, both single-source and through the lockstep Batch.

// dirModes is the mode battery: the two forced directions, the default
// Auto, and two skewed Auto configs — one that flips to pull almost
// immediately, one whose thresholds force push→pull→push oscillation.
func dirModes() []struct {
	name string
	cfg  DirectionConfig
} {
	return []struct {
		name string
		cfg  DirectionConfig
	}{
		{"push", DirectionConfig{Mode: DirForcePush}},
		{"pull", DirectionConfig{Mode: DirForcePull}},
		{"auto", DirectionConfig{Mode: DirAuto}},
		{"auto-eager", DirectionConfig{Mode: DirAuto, Alpha: 1e6, Beta: 1e-6}},
		{"auto-flappy", DirectionConfig{Mode: DirAuto, Alpha: 1e6, Beta: 1e6}},
	}
}

// dirQueries is the BFS/SSSP slice of the differential battery with a
// direction config applied.
func dirQueries(g *graph.Graph, starts []graph.VertexID, cfg DirectionConfig) []Query {
	var out []Query
	for _, q := range diffQueries(g, starts) {
		if q.Op != OpBFS && q.Op != OpSSSP {
			continue
		}
		q.Dir = cfg
		out = append(out, q)
	}
	return out
}

func TestDirectionModesMatchReference(t *testing.T) {
	for _, dg := range diffGraphs(t) {
		dg := dg
		t.Run(dg.name, func(t *testing.T) {
			ws := NewWorkspace(dg.g.NumVertices())
			for _, mode := range dirModes() {
				for qi, q := range dirQueries(dg.g, dg.starts, mode.cfg) {
					if skipPredOnBipartite(dg.name, q) {
						continue
					}
					label := fmt.Sprintf("%s/q%d(%s start=%d)", mode.name, qi, q.Op, q.Start)
					assertSameExecution(t, label, dg.g, q, ws)
				}
			}
		})
	}
}

func TestBatchDirectionModesMatchReference(t *testing.T) {
	for _, dg := range diffGraphs(t) {
		dg := dg
		t.Run(dg.name, func(t *testing.T) {
			b := NewBatch(dg.g.NumVertices())
			for _, mode := range dirModes() {
				var queries []Query
				for _, q := range dirQueries(dg.g, dg.starts, mode.cfg) {
					if skipPredOnBipartite(dg.name, q) {
						continue
					}
					queries = append(queries, q)
				}
				if len(queries) > MaxBatch {
					queries = queries[:MaxBatch]
				}
				assertBatchMatchesSingle(t, mode.name, b, dg.g, queries)
			}
		})
	}
}

// TestBatchMixedDirectionModes batches queries whose slots disagree on
// direction mode — each slot must still match its own single-source
// run.
func TestBatchMixedDirectionModes(t *testing.T) {
	dg := diffGraphs(t)[1] // power-law
	modes := dirModes()
	var queries []Query
	for i, q := range dirQueries(dg.g, dg.starts, DirectionConfig{}) {
		q.Dir = modes[i%len(modes)].cfg
		queries = append(queries, q)
		if len(queries) == MaxBatch {
			break
		}
	}
	b := NewBatch(dg.g.NumVertices())
	assertBatchMatchesSingle(t, "mixed-modes", b, dg.g, queries)
}

// starFixture builds an undirected star: hub 0 joined to every other
// vertex — the degenerate hub shape the forced-mode assertions use.
func starFixture(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(graph.Undirected, n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, graph.VertexID(v))
	}
	return b.Build()
}

// sunflowerFixture builds the canonical auto-switch shape with a
// hand-checkable wave sequence: an m-clique (vertices 0..m-1), one
// pendant leaf per clique vertex (m+i attached to i), and a tail
// vertex 2m attached to clique vertex 0. BFS from the tail pushes two
// cheap waves, then faces the full clique as its frontier — m(m-1)
// out-edges, nearly all landing on visited vertices, against only the
// m-1 pendant slots left unexplored — exactly the redundant mega-wave
// the pull flip exists for.
func sunflowerFixture(t *testing.T, m int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(graph.Undirected, 2*m+1)
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
		b.AddEdge(graph.VertexID(u), graph.VertexID(m+u))
	}
	b.AddEdge(0, graph.VertexID(2*m))
	return b.Build()
}

func TestDirStats(t *testing.T) {
	g := sunflowerFixture(t, 64)
	ws := NewWorkspace(g.NumVertices())
	tail := graph.VertexID(128)

	run := func(cfg DirectionConfig) DirStats {
		if _, _, err := ExecuteIn(ws, g, Query{Op: OpBFS, Start: tail, Depth: 3, Dir: cfg}); err != nil {
			t.Fatal(err)
		}
		return ws.DirStats()
	}

	if st := run(DirectionConfig{Mode: DirForcePush}); st.PullWaves != 0 || st.PushWaves == 0 || st.Switches != 0 {
		t.Errorf("ForcePush stats = %+v, want push-only", st)
	}
	if st := run(DirectionConfig{Mode: DirForcePull}); st.PushWaves != 0 || st.PullWaves == 0 || st.Switches != 0 {
		t.Errorf("ForcePull stats = %+v, want pull-only", st)
	}
	// Auto from the tail: wave 0 (1 out-edge) and wave 1 (clique vertex
	// 0's 65 out-edges vs 4096 unexplored + 129 sweep) push; wave 2 (the
	// 64-strong clique frontier, 4033 out-edges vs 63 unexplored + 129)
	// flips to pull and discovers the pendants.
	st := run(DirectionConfig{Mode: DirAuto})
	if st != (DirStats{PushWaves: 2, PullWaves: 1, Switches: 1}) {
		t.Errorf("Auto stats on sunflower = %+v, want {PushWaves:2 PullWaves:1 Switches:1}", st)
	}

	// DirStats must reset between executions: a collab query has no
	// direction choice.
	bip, err := graphgen.Purchases(graphgen.PurchaseConfig{
		NumCustomers: 50, NumProducts: 20, PurchasesPerCustomerMean: 4,
		PopularityExponent: 2.3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	wsB := NewWorkspace(bip.Graph.NumVertices())
	if _, _, err := ExecuteIn(wsB, bip.Graph, Query{Op: OpBFS, Start: bip.ProductVertex(0), Depth: 2, Dir: DirectionConfig{Mode: DirForcePull}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExecuteIn(wsB, bip.Graph, Query{Op: OpCollab, Start: bip.ProductVertex(0), SimilarityThreshold: 0}); err != nil {
		t.Fatal(err)
	}
	if st := wsB.DirStats(); st != (DirStats{}) {
		t.Errorf("DirStats leaked across executions: %+v", st)
	}
}

// TestBatchDirStats mirrors TestDirStats through the lockstep engine:
// per-slot counters must match the single-source ones.
func TestBatchDirStats(t *testing.T) {
	g := sunflowerFixture(t, 64)
	tail := graph.VertexID(128)
	queries := []Query{
		{Op: OpBFS, Start: tail, Depth: 3, Dir: DirectionConfig{Mode: DirForcePush}},
		{Op: OpBFS, Start: tail, Depth: 3, Dir: DirectionConfig{Mode: DirAuto}},
		{Op: OpSSSP, Start: tail, Target: 127, Depth: 4, Dir: DirectionConfig{Mode: DirForcePull}},
	}
	b := NewBatch(g.NumVertices())
	if _, _, _, err := b.Run(g, queries); err != nil {
		t.Fatal(err)
	}
	if st := b.DirStats(0); st.PullWaves != 0 || st.PushWaves == 0 {
		t.Errorf("slot 0 (ForcePush) stats = %+v, want push-only", st)
	}
	if st := b.DirStats(1); st != (DirStats{PushWaves: 2, PullWaves: 1, Switches: 1}) {
		t.Errorf("slot 1 (Auto) stats = %+v, want {PushWaves:2 PullWaves:1 Switches:1}", st)
	}
	if st := b.DirStats(2); st.PushWaves != 0 || st.PullWaves == 0 || st.Switches != 0 {
		t.Errorf("slot 2 (ForcePull) stats = %+v, want pull-only", st)
	}
}

// TestValidateDirection pins the config validation surface.
func TestValidateDirection(t *testing.T) {
	g := starFixture(t, 8)
	bad := []Query{
		{Op: OpBFS, Start: 0, Depth: 1, Dir: DirectionConfig{Mode: Direction(7)}},
		{Op: OpBFS, Start: 0, Depth: 1, Dir: DirectionConfig{Alpha: -1}},
		{Op: OpSSSP, Start: 0, Target: 1, Depth: 2, Dir: DirectionConfig{Beta: -0.5}},
	}
	for i, q := range bad {
		if err := q.Validate(g); err == nil {
			t.Errorf("query %d: invalid direction config accepted", i)
		}
	}
	ok := Query{Op: OpBFS, Start: 0, Depth: 1, Dir: DirectionConfig{Mode: DirForcePull, Alpha: 3, Beta: 9}}
	if err := ok.Validate(g); err != nil {
		t.Errorf("valid direction config rejected: %v", err)
	}
}

// TestChargeScanSaturates is the regression guard for the int32
// overflow class the batch engine exposed: MaxBatch queries' scans of
// one synthetic max-degree record aggregate into a single shared
// access, so the add must saturate instead of wrapping negative.
func TestChargeScanSaturates(t *testing.T) {
	tr := &Trace{Accesses: []Access{{Vertex: 0, Bytes: 64}}}
	tr.chargeScan(0, math.MaxInt32-10)
	tr.chargeScan(0, math.MaxInt32-10) // would wrap far negative un-saturated
	if got := tr.Accesses[0].ScannedEdges; got != math.MaxInt32 {
		t.Errorf("ScannedEdges = %d after overflow-sized charges, want saturation at %d",
			got, int32(math.MaxInt32))
	}
	tr.chargeScan(0, 1)
	if got := tr.Accesses[0].ScannedEdges; got != math.MaxInt32 {
		t.Errorf("ScannedEdges = %d after post-saturation charge, want %d stays pinned",
			got, int32(math.MaxInt32))
	}
}

// Dense kernels stay inside the zero-alloc budget once warmed: the
// pull frontier view, candidate buffer, and the graph's in-CSR are all
// built once and reused. A one-query Batch.Run is the same path plus
// validation, on the same budget.
func TestDenseKernelAllocBudgets(t *testing.T) {
	pl, _ := allocFixture(t)
	ws := NewWorkspace(pl.NumVertices())
	b := NewBatch(pl.NumVertices())
	hub := hubAndLeaf(pl)[0]
	for _, mode := range dirModes() {
		mode := mode
		checkAllocs(t, "BFS/"+mode.name, maxAllocsBFS, func() {
			ws.BFS(pl, Query{Op: OpBFS, Start: hub, Depth: 3, Dir: mode.cfg})
		})
		checkAllocs(t, "BoundedSSSP/"+mode.name, maxAllocsSSSP, func() {
			ws.BoundedSSSP(pl, Query{Op: OpSSSP, Start: hub, Target: hub ^ 1, Depth: 5, Dir: mode.cfg})
		})
		one := []Query{{Op: OpSSSP, Start: hub, Target: hub ^ 1, Depth: 5, Dir: mode.cfg}}
		checkAllocs(t, "Batch.Run/1/"+mode.name, maxAllocsBatchOfOne, func() {
			if _, _, _, err := b.Run(pl, one); err != nil {
				t.Fatal(err)
			}
		})
	}
}
